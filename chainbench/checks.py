"""Output checks computed apart from the program.

Files are parsed here from their documented byte and CSV formats, and
every expected value is recomputed with plain float64 numpy: the
program's own readers, forward pass and evaluation code are not used
as oracles.  The one exception is the dataset round trip, which is a
property of the program's reader and writer and so must call them.

Each check reads everything it needs from the files, so it can run in
a separate process and keep the benchmark process's memory that of the
program.  Every check raises CheckFailed with a message naming what
disagreed.  Run as a script, this module is that process: it reads
pickled ``(check name, args)`` requests from stdin and answers each with
a pickled ``None`` (passed) or failure message on stdout, until stdin
closes.
"""

import math
import pickle
import struct
import sys
from pathlib import Path

import numpy as np

# Documented contract of the dataset generator: duplicate-class samples
# differ pairwise by at most this much per pixel.
DUPLICATE_PIXEL_TOL = 1e-3

# The program trains and scores in float32; these bound its distance from
# the float64 recomputation.
SCORE_ATOL = 2e-5
WEIGHT_ATOL = 2e-5
# Largest allowed gap between a pair similarity from the program's float32
# embeddings and the float64 one here, for the threshold and FNMR bands.
SIM_ATOL = 5e-6


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# file parsers

def read_dataset(path):
    raw = Path(path).read_bytes()
    expect(raw[:7] == b"IGFQDS1", f"{path}: bad dataset magic")
    classes, per_class, side = struct.unpack_from("<III", raw, 7)
    pixels = side * side
    record = np.dtype([("label", "<u4"), ("level", "<f4"),
                       ("pix", "<f4", (pixels,))])
    total = classes * per_class
    expect(len(raw) == 19 + total * record.itemsize + classes,
           f"{path}: size {len(raw)} does not match its header")
    rows = np.frombuffer(raw, dtype=record, count=total, offset=19)
    flags = np.frombuffer(raw, dtype=np.uint8, count=classes,
                          offset=19 + total * record.itemsize)
    return {"classes": classes, "per_class": per_class, "side": side,
            "labels": rows["label"].astype(np.int64),
            "levels": rows["level"].copy(), "pixels": rows["pix"].copy(),
            "flags": flags.copy(), "bytes": raw}


CKPT_HEADER = "<8sIIIIIBIIQIIddddd"


def read_checkpoint(path):
    raw = Path(path).read_bytes()
    head = struct.unpack_from(CKPT_HEADER, raw, 0)
    (magic, version, d_in, d_hid, d_emb, classes, has_bias, epoch,
     step_in_epoch, global_step, t_step, t_total) = head[:12]
    expect(magic == b"IGFQCKPT" and version == 1,
           f"{path}: bad checkpoint magic or version")
    shapes = [("w1", (d_in, d_hid)), ("b1", (d_hid,)), ("w2", (d_hid, d_emb)),
              ("b2", (d_emb,)), ("bank", (d_emb, classes)),
              ("head_w", (d_emb,))]
    if has_bias:
        shapes.append(("head_b", (1,)))
    shapes.append(("v", (classes,)))
    shapes += [(f"m_{name}", shape) for name, shape in shapes[:6]]
    if has_bias:
        shapes.append(("m_head_b", (1,)))
    offset = struct.calcsize(CKPT_HEADER)
    arrays = {}
    for name, shape in shapes:
        count = math.prod(shape)
        expect(offset + 4 * count <= len(raw), f"{path}: truncated at {name}")
        arrays[name] = np.frombuffer(raw, dtype="<f4", count=count,
                                     offset=offset).reshape(shape)
        offset += 4 * count
    expect(offset == len(raw), f"{path}: trailing bytes")
    arrays.update(epoch=epoch, step_in_epoch=step_in_epoch,
                  global_step=global_step, tracker_step=t_step,
                  tracker_total=t_total, has_bias=bool(has_bias))
    return arrays


def read_csv(path, header):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    expect(lines and lines[0] == header,
           f"{path}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# reference computations

def embed64(ckpt, pixels, chunk=2048):
    """Float64 forward pass of the checkpoint's backbone: centre inputs at
    0.5, one rectified hidden layer, unit-normalise."""
    w1 = ckpt["w1"].astype(np.float64)
    b1 = ckpt["b1"].astype(np.float64)
    w2 = ckpt["w2"].astype(np.float64)
    b2 = ckpt["b2"].astype(np.float64)
    out = np.empty((pixels.shape[0], w2.shape[1]))
    for lo in range(0, pixels.shape[0], chunk):
        x = pixels[lo:lo + chunk].astype(np.float64) - 0.5
        h = np.maximum(x @ w1 + b1, 0.0)
        e = h @ w2 + b2
        out[lo:lo + chunk] = e / np.sqrt(np.sum(e * e, axis=1))[:, None]
    return out


def scores64(ckpt, emb):
    s = emb @ ckpt["head_w"].astype(np.float64)
    if ckpt["has_bias"]:
        s = s + float(ckpt["head_b"][0])
    return s


def reference_weights(v):
    """1 + clip((v - mean) / std, -1, 0), all ones when std is degenerate."""
    v = np.asarray(v, dtype=np.float64)
    sigma = v.std()
    if sigma < 1e-12:
        return np.ones_like(v)
    return 1.0 + np.clip((v - v.mean()) / sigma, -1.0, 0.0)


def fmr_threshold64(nonmated_sims, fmr):
    """Midpoint between the k-th and (k+1)-th highest non-mated
    similarity, k = floor(fmr * n): the threshold accepts exactly k."""
    s = np.sort(nonmated_sims)[::-1]
    k = int(math.floor(fmr * s.size))
    expect(1 <= k < s.size, f"fmr {fmr} leaves k={k} of {s.size} accepted")
    return (s[k - 1] + s[k]) / 2.0


def trapezoid(x, y):
    return float(sum((x[i + 1] - x[i]) * (y[i] + y[i + 1]) / 2.0
                     for i in range(len(x) - 1)))


# ---------------------------------------------------------------------------
# per-command checks

def check_synth(path, cfg, scratch):
    """cfg: the SynthConfig fields the dataset was generated from.  The
    round trip goes through the program's own reader and writer, so
    fiqlab must be importable."""
    from fiqlab import synthdata

    ds = read_dataset(path)
    classes, per_class = cfg["num_classes"], cfg["samples_per_class"]
    expect((ds["classes"], ds["per_class"], ds["side"])
           == (classes, per_class, cfg["side"]), f"{path}: header disagrees")
    expect(np.array_equal(np.bincount(ds["labels"], minlength=classes),
                          np.full(classes, per_class)),
           f"{path}: some class lacks {per_class} samples")
    px = ds["pixels"]
    expect(np.all(np.isfinite(px)) and px.min() >= 0.0 and px.max() <= 1.0,
           f"{path}: pixels outside [0, 1]")
    lv = ds["levels"]
    expect(np.all((lv >= 0.0) & (lv <= 1.0)), f"{path}: levels outside [0, 1]")
    if cfg["degrade_fraction"] == 0.0:
        expect(not lv.any(), f"{path}: degraded samples with fraction 0")
    flags = ds["flags"]
    expect(np.isin(flags, (0, 1)).all(), f"{path}: unknown class flag")
    n_dup = round(cfg["duplicate_class_fraction"] * classes)
    expect(int(flags.sum()) == n_dup,
           f"{path}: {int(flags.sum())} duplicate classes, expected {n_dup}")
    by_class = px.reshape(classes, per_class, -1)
    for c in np.flatnonzero(flags == 1):
        spread = float((by_class[c].max(axis=0) - by_class[c].min(axis=0)).max())
        expect(spread <= DUPLICATE_PIXEL_TOL,
               f"{path}: duplicate class {c} spreads {spread:.3g}")

    # load(file) equals the parsed arrays and save(load(file)) equals the
    # file's bytes, so load(save(ds)) == ds bit for bit for ds = load(file).
    loaded = synthdata.load_dataset(path)
    expect(loaded.images.tobytes() == px.tobytes()
           and loaded.labels.astype(np.int64).tobytes()
           == ds["labels"].tobytes()
           and loaded.degradation_level.tobytes() == lv.tobytes()
           and loaded.class_flags.tobytes() == flags.tobytes(),
           f"{path}: load_dataset differs from the file's arrays")
    copy = Path(scratch) / "roundtrip.bin"
    synthdata.save_dataset(loaded, copy)
    same = copy.read_bytes() == ds["bytes"]
    copy.unlink()
    expect(same, f"{path}: save(load(file)) changes the bytes")


def check_train(run_dir, dataset, epochs, batch_size):
    run_dir = Path(run_dir)
    ds = read_dataset(dataset)
    ckpt = read_checkpoint(run_dir / "checkpoint.bin")
    steps = epochs * (ds["labels"].size // batch_size)
    expect(ckpt["tracker_step"] == steps and ckpt["global_step"] == steps,
           f"tracker step {ckpt['tracker_step']}, global step "
           f"{ckpt['global_step']}; {steps} steps were run")
    expect(ckpt["epoch"] == epochs and ckpt["step_in_epoch"] == 0,
           "checkpoint epoch counters disagree with the run")

    rows = read_csv(run_dir / "report.csv",
                    "epoch,l_arc,l_ig,ccs_dist,pearson_var_v,frac_zero_weight")
    expect([int(r[0]) for r in rows] == list(range(epochs)),
           "report.csv does not list every epoch once")
    for r in rows:
        expect(math.isfinite(float(r[1])) and math.isfinite(float(r[2])),
               f"report.csv epoch {r[0]}: non-finite loss")

    rows = read_csv(run_dir / "class_weights.csv", "class_id,v,weight")
    v = ckpt["v"]
    expect([int(r[0]) for r in rows] == list(range(v.size)),
           "class_weights.csv does not list every class once")
    csv_v = np.array([float(r[1]) for r in rows], dtype=np.float32)
    expect(np.array_equal(csv_v, v),
           "class_weights.csv v differs from the checkpoint")
    w = np.array([float(r[2]) for r in rows])
    err = float(np.abs(w - reference_weights(v)).max())
    expect(err <= WEIGHT_ATOL, f"class weights off by {err:.3g}")
    dup = ds["flags"] == 1
    if dup.any() and (~dup).any():
        expect(w[dup].mean() < w[~dup].mean(),
               f"duplicate classes weigh {w[dup].mean():.3f} on average, "
               f"normal classes {w[~dup].mean():.3f}")


def read_scores(scores_csv, n):
    rows = read_csv(scores_csv, "sample_id,score")
    expect([int(r[0]) for r in rows] == list(range(n)),
           f"{scores_csv}: ids are not 0..{n - 1} in order")
    return np.array([float(r[1]) for r in rows])


def check_score(scores_csv, checkpoint, dataset):
    ds = read_dataset(dataset)
    written = read_scores(scores_csv, ds["labels"].size)
    ckpt = read_checkpoint(checkpoint)
    ref = scores64(ckpt, embed64(ckpt, ds["pixels"]))
    err = np.abs(written - ref)
    worst = int(np.argmax(err))
    expect(err[worst] <= SCORE_ATOL,
           f"{scores_csv}: sample {worst} scores {written[worst]:.9g}, the "
           f"float64 forward gives {ref[worst]:.9g}")


def check_erc(erc_dir, checkpoint, dataset, scores_csv, fmr, max_per_class,
              nonmated, grid_step=0.01, max_reject=0.95):
    erc_dir = Path(erc_dir)
    ds = read_dataset(dataset)
    labels = ds["labels"]
    rows = read_csv(erc_dir / "pairs.csv", "idx_a,idx_b,genuine")
    pairs = np.array(rows, dtype=np.int64).reshape(-1, 3)
    a, b, genuine = pairs[:, 0], pairs[:, 1], pairs[:, 2]
    n = labels.size
    expect(np.all((0 <= a) & (a < b) & (b < n)),
           "pair indices out of order or range")
    expect(np.isin(genuine, (0, 1)).all(), "genuine flag is not 0 or 1")
    genuine = genuine.astype(bool)
    same = labels[a] == labels[b]
    expect(np.array_equal(same, genuine),
           f"{int(np.sum(same != genuine))} pairs carry a genuine flag that "
           "disagrees with their labels")
    expect(np.unique(a * n + b).size == a.size, "a pair appears twice")
    mated = int(sum(min(k * (k - 1) // 2, max_per_class)
                    for k in np.bincount(labels)))
    expect(int(genuine.sum()) == mated and int((~genuine).sum()) == nonmated,
           f"{int(genuine.sum())} mated and {int((~genuine).sum())} "
           f"non-mated pairs, expected {mated} and {nonmated}")

    auc_rows = read_csv(erc_dir / "erc_auc.csv", "method,fmr,auc")
    expect(len(auc_rows) == 1 and float(auc_rows[0][1]) == fmr,
           "erc_auc.csv must hold one row at the requested fmr")
    auc = float(auc_rows[0][2])
    curve = np.array(read_csv(erc_dir / "erc_curve.csv", "reject_rate,fnmr"),
                     dtype=np.float64).reshape(-1, 2)

    # Brute force: threshold from the non-mated similarities; at every grid
    # rate drop the lowest-quality pairs and count mated pairs below it.
    # Similarities here are float64, the program's are float32, so each
    # FNMR is bounded by counting at threshold -/+ 2 * SIM_ATOL.
    emb = embed64(read_checkpoint(checkpoint), ds["pixels"])
    scores = read_scores(scores_csv, n)
    sims = np.sum(emb[a] * emb[b], axis=1)
    thr = fmr_threshold64(sims[~genuine], fmr)
    quality = np.minimum(scores[a], scores[b])
    order = np.lexsort((b, a, quality))
    lo, hi, rates = [], [], []
    for k in range(int(math.floor(max_reject / grid_step + 1e-9)) + 1):
        r = k * grid_step
        survivors = order[int(math.floor(r * a.size + 1e-9)):]
        kept = sims[survivors[genuine[survivors]]]
        if kept.size == 0:
            break
        rates.append(r)
        lo.append(np.count_nonzero(kept < thr - 2 * SIM_ATOL) / kept.size)
        hi.append(np.count_nonzero(kept < thr + 2 * SIM_ATOL) / kept.size)
    expect(curve.shape[0] == len(rates),
           f"curve has {curve.shape[0]} points, expected {len(rates)}")
    expect(np.allclose(curve[:, 0], rates, rtol=0.0, atol=1e-9),
           "curve rejection rates are not the grid")
    y = curve[:, 1]
    for i in range(len(rates)):
        expect(lo[i] - 1e-9 <= y[i] <= hi[i] + 1e-9,
               f"FNMR at rejection {rates[i]:.2f} is {y[i]:.9g}, outside "
               f"[{lo[i]:.9g}, {hi[i]:.9g}]")
    expect(abs(trapezoid(curve[:, 0], y) - auc) <= 1e-8 * max(1.0, abs(auc)),
           "erc_auc.csv differs from the trapezoid of erc_curve.csv")
    expect(trapezoid(rates, lo) - 1e-8 <= auc <= trapezoid(rates, hi) + 1e-8,
           "AUC outside its brute-force bounds")


# ---------------------------------------------------------------------------
# worker process

def serve(requests, replies):
    while True:
        try:
            name, args = pickle.load(requests)
        except EOFError:
            return
        try:
            globals()[name](*args)
            reply = None
        except CheckFailed as exc:
            reply = str(exc)
        except Exception as exc:  # an unreadable output fails its check too
            reply = f"{type(exc).__name__}: {exc}"
        pickle.dump(reply, replies)
        replies.flush()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    replies = sys.stdout.buffer
    sys.stdout = sys.stderr  # keep stray prints off the reply stream
    serve(sys.stdin.buffer, replies)
