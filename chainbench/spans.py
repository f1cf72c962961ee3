"""In-memory span tracer installed around fiqlab's public functions.

The program itself carries no tracing.  ``install`` replaces each traced
function with a wrapper, and rebinds the wrapper under every name that
held the original in any loaded ``fiqlab`` module: the trainer binds
``rng_for``, ``hflip`` and ``augment`` at import, so patching only the
defining module would miss those calls without any sign.

A span is (name, start, end, parent, rows, round).  Spans stay in flat
arrays while the run lasts and are written out once, when it ends.  A
layer's self time is its span duration minus the durations of the spans
nested directly inside it.
"""

import functools
import sys
import time
from array import array

import numpy as np


# (module, function, metric stem, count metric, rows extractor).  Each
# span reports "<stem>_s", its self time; where a count metric is named,
# it counts the spans, or sums the rows extractor over them if one is given.
SPANS = (
    ("rngstreams", "rng_for", "rngstreams.rng_for",
     "rngstreams.rng_for_calls", None),
    ("synthdata", "hflip", "synthdata.hflip", None, None),
    ("synthdata", "augment", "synthdata.augment", "synthdata.augment_calls",
     None),
    ("synthdata", "gen_dataset", "synthdata.gen_dataset", None, None),
    ("synthdata", "save_dataset", "synthdata.save_dataset", None, None),
    ("synthdata", "load_dataset", "synthdata.load_dataset",
     "synthdata.load_dataset_calls", None),
    ("trainer", "run_training", "trainer.run_training", None, None),
    ("trainer", "_build_half", "trainer.batch_build", None, None),
    ("trainer", "train_step", "trainer.train_step", "trainer.train_step_calls",
     None),
    ("trainer", "sgd_update", "trainer.sgd_update", None, None),
    ("trainer", "checkpoint_save", "trainer.checkpoint_save",
     "trainer.checkpoint_save_calls", None),
    ("trainer", "checkpoint_load", "trainer.checkpoint_load", None, None),
    ("backbone", "forward", "backbone.forward", "backbone.forward_rows",
     lambda args, kwargs, out: out[0].shape[0]),
    ("backbone", "backward", "backbone.backward", "backbone.backward_rows",
     lambda args, kwargs, out: args[1].x.shape[0]),
    ("margin", "arcface_loss", "margin.arcface_loss", None, None),
    ("margin", "cosines", "margin.cosines", None, None),
    ("margin", "cr_batch", "margin.cr_batch", None, None),
    ("variance", "group_ccs_by_class", "variance.group_ccs_by_class", None,
     None),
    ("variance", "update", "variance.update", None, None),
    ("variance", "weights", "variance.weights", "variance.weights_calls",
     None),
    ("quality", "weighted_regression_loss", "quality.weighted_regression_loss",
     None, None),
    ("quality", "predict", "quality.predict", None, None),
    ("evalkit", "oracle_variance", "evalkit.oracle_variance", None, None),
    ("evalkit", "embed_dataset", "evalkit.embed_dataset",
     "evalkit.embed_dataset_rows", lambda args, kwargs, out: len(out)),
    ("evalkit", "gen_pairs", "evalkit.gen_pairs", "evalkit.pairs_generated",
     lambda args, kwargs, out: len(out)),
    ("evalkit", "pair_similarities", "evalkit.pair_similarities", None, None),
    ("evalkit", "erc", "evalkit.erc", None, None),
    ("evalkit", "write_pairs_csv", "evalkit.write_pairs_csv", None, None),
    ("cli", "cmd_synth", "cli.synth", None, None),
    ("cli", "cmd_train", "cli.train", None, None),
    ("cli", "cmd_score", "cli.score", None, None),
    ("cli", "cmd_erc", "cli.erc", None, None),
    ("cli", "write_manifest", "cli.write_manifest", None, None),
)


def metric_names():
    """Per-layer metric names in SPANS order: each span's self time, then
    its count metric where it has one."""
    names = []
    for _, _, stem, count, _ in SPANS:
        names.append(f"{stem}_s")
        if count is not None:
            names.append(count)
    return names


class Tracer:
    def __init__(self):
        self.names = [stem for _, _, stem, _, _ in SPANS]
        self.active = False
        self.round = 0
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.round_of = array("i")
        self._stack = [-1]

    def wrap(self, index, fn, rows):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.name)
            self.name.append(index)
            self.parent.append(self._stack[-1])
            self.rows.append(0)
            self.round_of.append(self.round)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._stack.pop()
            if rows is not None:
                self.rows[sid] = rows(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every function in SPANS and rebind the wrapper under every
        name that held the original in a loaded fiqlab module."""
        wrappers = {}
        for index, (mod, attr, _, _, rows) in enumerate(SPANS):
            fn = getattr(sys.modules[f"fiqlab.{mod}"], attr)
            wrappers[id(fn)] = (fn, self.wrap(index, fn, rows))
        for name, module in list(sys.modules.items()):
            if name != "fiqlab" and not name.startswith("fiqlab."):
                continue
            for key, value in list(vars(module).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if value is fn:
                    setattr(module, key, wrapper)

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "rows": np.frombuffer(self.rows, dtype=np.int64),
            "round": np.frombuffer(self.round_of, dtype=np.int32),
        }

    def per_round(self):
        """{round: {metric: value}} with self times and counts."""
        a = self.arrays()
        if a["name"].size == 0:
            return {}
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=dur.size)
        own = dur - child
        k = len(SPANS)
        rounds = np.unique(a["round"])
        out = {}
        for r in rounds.tolist():
            sel = a["round"] == r
            names = a["name"][sel]
            self_s = np.bincount(names, weights=own[sel], minlength=k)
            calls = np.bincount(names, minlength=k)
            rows = np.bincount(names, weights=a["rows"][sel], minlength=k)
            values = {}
            for i, (_, _, stem, count, extract) in enumerate(SPANS):
                values[f"{stem}_s"] = float(self_s[i])
                if count is not None:
                    values[count] = int(calls[i] if extract is None
                                        else rows[i])
            out[r] = values
        return out

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
