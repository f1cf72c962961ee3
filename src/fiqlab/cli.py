"""Command-line entry point.

Commands: synth, train, score, erc, report, oracle-check, grad-check,
selfcheck.  Every command that writes files records itself in the
``manifest.json`` of their directory: the argv, the resolved
configuration, and the SHA-256 of each output file, so a run can be
replayed and verified bit-for-bit.

Exit codes: 0 success, 1 usage/config error, 2 data/format error,
3 numeric failure.
"""

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import backbone as bb
from . import evalkit, margin, quality, synthdata, trainer, variance
from .configio import build_config, text_lines, write_csv
from .errors import (
    ConfigError,
    DomainError,
    FiqError,
    FormatError,
    NumericError,
    StructuralError,
)
from .rngstreams import (
    T_SAMPLE,
    StreamDraws,
    first_random,
    rng_for,
    rngs_for,
    stream_words,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_records(out_dir):
    """The records of ``out_dir/manifest.json`` ([] if there is none).
    Commands read them before any work too, so a malformed manifest
    refuses a command (FormatError) before it writes anything."""
    path = Path(out_dir) / "manifest.json"
    return load_manifest(path)["commands"] if path.exists() else []


def write_manifest(out_dir, command, argv, config, inputs, outputs,
                   started, seed=None):
    """Record a command in ``out_dir/manifest.json``, which keeps one
    record per command that wrote there: a record of the same command
    with an output in common, a re-run, is replaced; every other stays.
    Outputs are files of ``out_dir``, so their names identify them
    however their paths were spelled."""
    record = {
        "command": command,
        "argv": list(argv),
        "config": config,
        "seed": seed,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "tool_version": __version__,
        "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "elapsed_s": time.time() - started,
    }
    names = {Path(p).name for p in outputs}
    kept = [r for r in manifest_records(out_dir) if r["command"] != command
            or names.isdisjoint(Path(p).name for p in r["outputs"])]
    manifest = {"commands": kept + [record]}
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_manifest(path):
    """A manifest, ``{"commands": [record, ...]}``, each record naming
    its command and the sha256 of its outputs; FormatError otherwise."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: not a JSON manifest ({exc})") from exc
    records = manifest.get("commands") if isinstance(manifest, dict) else None
    if not isinstance(records, list) or not all(
            isinstance(r, dict) and isinstance(r.get("command"), str)
            and isinstance(r.get("outputs"), dict) for r in records):
        raise FormatError(f"{path}: expected {{\"commands\": [record, ...]}} "
                          f"with a command and outputs in every record")
    return manifest


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args, argv):
    started = time.time()
    overrides = {"seed": args.seed}
    cfg = build_config(synthdata.SynthConfig, args.config,
                       required=("num_classes", "samples_per_class"),
                       overrides=overrides)
    out = Path(args.out)
    manifest_records(out.parent)
    dataset = synthdata.gen_dataset(cfg)
    out.parent.mkdir(parents=True, exist_ok=True)
    synthdata.save_dataset(dataset, out)
    write_manifest(out.parent, "synth", argv, vars(cfg).copy(),
                   {"config": args.config}, [out], seed=cfg.seed,
                   started=started)
    print(f"wrote {out} ({dataset.num_samples} samples, "
          f"{dataset.num_classes} classes)")
    return EXIT_OK


def cmd_train(args, argv):
    started = time.time()
    overrides = {"seed": args.seed}
    cfg = build_config(trainer.TrainConfig, args.config, overrides=overrides,
                       fixed=trainer.VARIANTS[args.variant],
                       fixed_by=f"--variant {args.variant}")
    out_dir = Path(args.out)
    manifest_records(out_dir)
    dataset = synthdata.load_dataset(args.dataset)
    out_dir.mkdir(parents=True, exist_ok=True)
    state, logs = trainer.run_training(cfg, dataset, checkpoint_dir=out_dir)
    ckpt = out_dir / "checkpoint.bin"
    trainer.checkpoint_save(state, ckpt)
    report = out_dir / "report.csv"
    trainer.write_report_csv(logs, report)
    weights_csv = out_dir / "class_weights.csv"
    variance.export_weights_csv(state.tracker, weights_csv)
    outputs = [ckpt, report, weights_csv]
    outputs += trainer.epoch_checkpoints(cfg, out_dir).values()
    write_manifest(out_dir, "train", argv,
                   dict(vars(cfg), variant=args.variant),
                   {"config": args.config, "dataset": args.dataset},
                   outputs, seed=cfg.seed, started=started)
    print(f"trained variant={args.variant} for {cfg.epochs} epochs; "
          f"checkpoint at {ckpt}")
    return EXIT_OK


def _embed_stream(model, path):
    """Embeddings of the dataset file ``path``, read as a stream of
    ``synthdata.BLOCK_ROWS``-record blocks, and the stream, which keeps
    the labels; a side the checkpoint's input does not match is refused
    before any record."""
    with synthdata.DatasetStream(path) as stream:
        if stream.side * stream.side != model.input_dim:
            raise StructuralError(
                f"dataset side {stream.side} does not match checkpoint input "
                f"dim {model.input_dim}")
        return evalkit.embed_dataset(model, stream), stream


def cmd_score(args, argv):
    started = time.time()
    out = Path(args.out)
    manifest_records(out.parent)
    state = trainer.checkpoint_load(args.checkpoint)
    emb, _ = _embed_stream(state.model, args.dataset)
    scores = quality.predict(state.head, emb)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = np.stack([np.arange(len(scores)), scores], axis=1)
    write_csv(out, "sample_id,score", "%d,%.9g", rows.ravel())
    write_manifest(out.parent, "score", argv, {},
                   {"checkpoint": args.checkpoint, "dataset": args.dataset},
                   [out], started=started)
    print(f"wrote {out} ({len(scores)} scores)")
    return EXIT_OK


def _read_scores_csv(path, expected):
    scores = np.full(expected, np.nan)
    seen = bytearray(expected)
    header, *rows = text_lines(path, FormatError) or [""]
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


def cmd_erc(args, argv):
    started = time.time()
    if not 0.0 < args.fmr < 1.0:
        raise ConfigError(f"--fmr must lie in (0, 1), got {args.fmr}")
    if not 0 <= (args.seed or 0) < 2 ** 32:
        raise ConfigError(f"--seed must lie in [0, 2**32), got {args.seed}")
    method = args.method or Path(args.scores).stem
    if any(c in method for c in ",\r\n"):
        raise ConfigError(f"method {method!r} must not contain ',', CR or LF")
    out_dir = Path(args.out)
    manifest_records(out_dir)
    state = trainer.checkpoint_load(args.checkpoint)
    emb, stream = _embed_stream(state.model, args.dataset)
    scores = _read_scores_csv(args.scores, stream.num_samples)
    pairs = evalkit.gen_pairs(stream, max_per_class=args.max_per_class,
                              nonmated_count=args.nonmated, seed=args.seed or 0)
    sims = evalkit.pair_similarities(emb, pairs)
    curve = evalkit.erc(pairs, sims, scores, args.fmr, grid_step=args.grid_step)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_csv = out_dir / "erc_curve.csv"
    write_csv(curve_csv, "reject_rate,fnmr", "%.9g,%.9g",
              curve.points.ravel())
    auc_csv = out_dir / "erc_auc.csv"
    write_csv(auc_csv, "method,fmr,auc", "%s,%.9g,%.9g",
              [method, args.fmr, curve.auc])
    pairs_csv = out_dir / "pairs.csv"
    evalkit.write_pairs_csv(pairs, pairs_csv)
    write_manifest(out_dir, "erc", argv,
                   {"fmr": args.fmr, "grid_step": args.grid_step,
                    "nonmated": args.nonmated,
                    "max_per_class": args.max_per_class, "method": method},
                   {"checkpoint": args.checkpoint, "dataset": args.dataset,
                    "scores": args.scores},
                   [curve_csv, auc_csv, pairs_csv], seed=args.seed or 0,
                   started=started)
    print(f"AUC({method}, fmr={args.fmr}) = {curve.auc:.6f} "
          f"(threshold {curve.threshold:.6f}); curve at {curve_csv}")
    return EXIT_OK


def cmd_report(args, argv):
    started = time.time()
    out = Path(args.out)
    manifest_records(out.parent)
    state = trainer.checkpoint_load(args.checkpoint)
    out.parent.mkdir(parents=True, exist_ok=True)
    variance.export_weights_csv(state.tracker, out)
    write_manifest(out.parent, "report", argv, {},
                   {"checkpoint": args.checkpoint}, [out], started=started)
    print(f"wrote per-class weight report {out}")
    return EXIT_OK


def cmd_oracle_check(args, argv):
    cfg = synthdata.SynthConfig(num_classes=args.classes,
                                samples_per_class=args.samples,
                                side=24, duplicate_class_fraction=0.1,
                                pose_spread=0.8, degrade_fraction=0.2,
                                seed=args.seed or 0)
    print(f"generating probe dataset: {cfg.num_classes * cfg.samples_per_class} "
          f"samples...")
    dataset = synthdata.gen_dataset(cfg)
    model = bb.init_backbone(dataset.side ** 2,
                             rng=rng_for(cfg.seed, 900), dtype=np.float32)
    tracker = variance.init_tracker(dataset.num_classes, total_steps=1000)
    report = evalkit.tracker_cost_probe(dataset, model, tracker)
    worst = _oracle_cross_check(dataset, model, report.naive_var)
    print(f"ema step cost   : {report.ema_step_cost * 1e3:.3f} ms")
    print(f"naive step cost : {report.naive_step_cost * 1e3:.3f} ms")
    print(f"cost ratio      : {report.ratio:.1f}x")
    print(f"oracle cross-check max abs diff: {worst:.3e}")
    ok = report.ratio >= 10.0 and worst < 1e-10
    print("oracle-check:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NUMERIC


def _oracle_cross_check(dataset, model, var):
    """Largest gap between ``var`` and each class's variance recomputed
    as mean ||e||^2 - ||mean e||^2 in float64."""
    emb = evalkit.embed_dataset(model, dataset.images)
    labels = dataset.labels.astype(np.int64)
    worst = 0.0
    for c in range(dataset.num_classes):
        rows = emb[labels == c].astype(np.float64)
        alt = float(np.mean(np.sum(rows * rows, axis=1))
                    - np.sum(rows.mean(axis=0) ** 2))
        worst = max(worst, abs(alt - var[c]))
    return worst


def _grad_checks():
    """Gradient fidelity checks for every loss in the package; returns
    (name, max_rel_err, tol) rows computed on float64 instances."""
    rows = []
    rng = rng_for(0, 901)
    model = bb.init_backbone(36, hidden_dim=20, embed_dim=16, rng=rng)
    batch = rng.uniform(0, 1, (8, 36))
    bank = margin.init_bank(16, 8, scale=12.0, margin=0.4, rng=rng)
    labels = rng.integers(0, 8, 8)
    head = quality.RegressionHead(weight=rng.standard_normal(16) * 0.2)
    targets = rng.uniform(0, 1, 8)
    weights = rng.uniform(0, 1, 8)

    def arc_loss(emb):
        res = margin.arcface_loss(bank, emb, labels)
        return res.loss, res.grad_emb

    rows.append(("margin loss via backbone",
                 bb.grad_check(model, arc_loss, batch).max_rel_err, 1e-4))

    def reg_loss(emb):
        res = quality.weighted_regression_loss(head, emb, targets, weights)
        return res.loss, res.grad_emb

    rows.append(("smooth-l1 regression via backbone",
                 bb.grad_check(model, reg_loss, batch).max_rel_err, 1e-4))

    lam = 10.0

    def combined(emb):
        arc = margin.arcface_loss(bank, emb, labels)
        reg = quality.weighted_regression_loss(head, emb, targets, weights)
        return (arc.loss + lam * reg.loss,
                arc.grad_emb + lam * reg.grad_emb)

    rows.append(("combined objective via backbone",
                 bb.grad_check(model, combined, batch).max_rel_err, 1e-4))
    return rows


def cmd_grad_check(args, argv):
    failures = 0
    for name, err, tol in _grad_checks():
        ok = err < tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: max rel err {err:.3e} "
              f"(tol {tol:g})")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def _decoded_draws_error(seed, counter, idx):
    """1.0 unless every draw that augmentation and then degradation
    decode from the streams ``rng_for(seed, T_SAMPLE, c, i)`` equals what
    numpy's own method makes on that stream, called with the decoder's
    ranges, else 0.0.  A last integer and double show where each stream
    stands afterwards, its buffered half word included."""
    draws = StreamDraws(functools.partial(stream_words, seed, T_SAMPLE,
                                          counter, idx), 4)
    log = []
    for name in ("random", "uniform", "integers"):
        def record(*args, _draw=getattr(draws, name), _name=name):
            out = _draw(*args)
            log.append((_name, args, out))
            return out
        setattr(draws, name, record)
    rows = np.arange(len(idx))
    synthdata._augment_draws(draws, len(idx), 24, 0.5)
    # side 4: some levels' erase ranges round below one pixel and draw
    # nothing, and some full-width rectangles draw no left offset
    synthdata._degrade_draws(draws, rows, 1.0 - draws.random(rows), 4)
    draws.integers(7, rows)
    draws.random(rows)
    calls = [[] for _ in rows]
    for name, (*ranges, at), out in log:
        ranges = [np.broadcast_to(r, at.shape).tolist() for r in ranges]
        for j, (k, got) in enumerate(zip(at.tolist(), out.tolist())):
            calls[k].append((name, [r[j] for r in ranges], got))
    for k, (c, i) in enumerate(zip(*np.broadcast_arrays(counter, idx))):
        rng = rng_for(seed, T_SAMPLE, c, i)
        for name, ranges, got in calls[k]:
            if name == "integers":
                ranges = [0, *ranges]
            if getattr(rng, name)(*ranges) != got:
                return 1.0
    return 0.0


def _selfchecks():
    checks = []
    for name, err, tol in _grad_checks():
        checks.append((f"gradient: {name}", err, tol))

    tracker = variance.init_tracker(1, total_steps=10 ** 9)
    variance.update(tracker, variance.group_ccs_by_class([0], [0.8]))
    checks.append(("ema hand value 0.92", abs(float(tracker.v[0]) - 0.92),
                   1e-9))
    frozen = variance.init_tracker(3, total_steps=5, alpha_start=1.0,
                                   alpha_end=1.0)
    before = frozen.v.copy()
    variance.update(frozen, variance.group_ccs_by_class([1], [0.3]))
    checks.append(("ema identity at alpha=1",
                   float(np.abs(frozen.v - before).max()), 0.0))
    t = variance.init_tracker(6, total_steps=5)
    t.v = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    w = variance.weights(t).w
    checks.append(("weight clamp floor exact zero", float(abs(w[0])), 0.0))
    checks.append(("weight ceiling exact one",
                   float(np.abs(w[1:] - 1.0).max()), 0.0))

    checks.append(("certainty ratio hand value",
                   abs(margin.cr(0.8, 0.2) - 0.6666666661), 1e-9))
    checks.append(("smooth-l1 hand value",
                   abs(float(quality.smooth_l1(0.1, 1.0)) - 0.005), 1e-12))
    checks.append(("ccs drift hand value",
                   abs(evalkit.ccs_dist([0.2, 0.8], [0.4, 0.7]) - 0.15), 1e-9))

    # oracle variance cross-check on a small random instance
    cfg = synthdata.SynthConfig(num_classes=5, samples_per_class=6, side=12,
                                pose_spread=0.5, seed=11)
    ds = synthdata.gen_dataset(cfg)
    model = bb.init_backbone(144, hidden_dim=24, embed_dim=12,
                             rng=rng_for(3, 902))
    worst = _oracle_cross_check(ds, model, evalkit.oracle_variance(ds, model))
    checks.append(("oracle variance cross-check", worst, 1e-10))

    # first_random and rngs_for restate numpy's SeedSequence and PCG64
    # seeding; an installed numpy whose streams diverged would show here
    worst = 0.0
    idx = np.arange(300)
    for seed in (0, 2 ** 32 - 1):
        for counter in (2, idx // 25):
            batched = zip(first_random(seed, T_SAMPLE, counter, idx),
                          rngs_for(seed, T_SAMPLE, counter, idx),
                          *np.broadcast_arrays(counter, idx))
            for first, got, c, i in batched:
                want = rng_for(seed, T_SAMPLE, c, i)
                # a power-of-two range takes a stale buffered half word as is
                draws = [(g.random(), g.uniform(0.5, 2.0),
                          *g.normal(0.0, 0.7, 2), g.integers(0, 16))
                         for g in (got, want)]
                same = got.bit_generator.state == want.bit_generator.state
                worst = max(worst, abs(first - draws[1][0]),
                            float(np.abs(np.subtract(*draws)).max()),
                            0.0 if same else 1.0)
    checks.append(("batched streams match rng_for", worst, 0.0))
    # augmentation and degradation decode numpy's Generator draws from
    # raw words; a numpy whose Generator algorithms drifted would show here
    worst = max(_decoded_draws_error(seed, counter, idx)
                for seed in (0, 2 ** 32 - 1) for counter in (2, idx // 25))
    checks.append(("decoded draws match numpy", worst, 0.0))

    thr = evalkit.fmr_threshold([0.1, 0.2, 0.3, 0.4], 0.25)
    checks.append(("fmr threshold hand example", abs(thr - 0.35), 1e-12))
    checks.append(("fnmr hand example",
                   abs(evalkit.fnmr([0.9, 0.8, 0.3, 0.2], 0.5) - 0.5), 1e-12))
    return checks


def cmd_selfcheck(args, argv):
    failures = 0
    for name, err, tol in _selfchecks():
        ok = err <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: max error {err:.3e} "
              f"(tol {tol:g})")
    print(f"selfcheck: {'PASS' if failures == 0 else 'FAIL'} "
          f"({failures} failing checks)")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="fiqlab",
        description="Synthetic testbed for variance-guided quality training")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a dataset container")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model variant")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=trainer.VARIANTS, default="ig")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("score", help="write quality scores for a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("erc", help="error-versus-rejection curve and AUC")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--fmr", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid-step", type=float, default=0.01)
    p.add_argument("--nonmated", type=int, default=5000)
    p.add_argument("--max-per-class", type=int, default=60)
    p.add_argument("--method", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_erc)

    p = sub.add_parser("report", help="per-class tracker weight CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("oracle-check",
                       help="EMA-vs-naive variance cost and agreement probe")
    p.add_argument("--classes", type=int, default=500)
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_oracle_check)

    p = sub.add_parser("grad-check", help="finite-difference gradient checks")
    p.set_defaults(fn=cmd_grad_check)

    p = sub.add_parser("selfcheck", help="full numeric self-check suite")
    p.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, argv)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, StructuralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FiqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry():
    raise SystemExit(main())
