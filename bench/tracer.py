"""Spans around the calls into pcldetect's modules, and the per-layer metrics.

The tracer replaces each public name where its caller looks it up (for
example `pcldetect.trainer.encode_batch`, which `Model.forward` reads from
the trainer module's globals) with a wrapper that records a span: name,
start, end and the span that was open when it started. Spans stay in memory
and are written out once, at the end of the run. Nothing under `src/` is
changed; `uninstall` puts every original back.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict

import numpy as np

OPS = (
    "matmul", "add", "softmax", "gelu", "layer_norm", "dropout",
    "embedding_gather", "reshape", "transpose", "select", "tanh", "sigmoid",
)

# spans that decide whether the work under them is training or evaluation
_MODE_OF = {
    "trainer.train_fold": "train",
    "trainer.eval_metric": "eval",
    "trainer.predict_records": "eval",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if ".padding_fraction." in metric:
        return "fraction"
    if metric.endswith(("_per_step", "_collections")) and "_ms_" not in metric:
        return "count"
    if "_us_" in metric:
        return "us"
    if metric.endswith(("_ms", "_ms_per_step", "_ms_per_batch", "_ms_per_fold", "_ms_per_eval")):
        return "ms"
    return "s"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.notes: dict[int, tuple] = {}  # span index -> (count, count) taken at that call
        self.kept: dict[str, list] = defaultdict(list)  # name -> return values
        self.gc_window = False
        self.gc_pauses: list[tuple[int, float]] = []  # (generation, seconds)
        self._stack = [-1]
        self._patched: list = []
        self._gc_t0 = 0.0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, note=None, keep: bool = False) -> None:
        """Replace owner.attr by a recording wrapper.

        `note(args, kwargs, result)` returns one or two numbers stored with
        the span; `keep` stores the return value under the span name.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        nid = self._id(name)

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(i)
            if note is not None:
                counts = note(args, kwargs, result)
                self.notes[i] = counts if isinstance(counts, tuple) else (counts, 0)
            if keep:
                self.kept[name].append(result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self.gc_window:
            self.gc_pauses.append((info["generation"], time.perf_counter() - self._gc_t0))

    def install(self) -> "Tracer":
        import pcldetect.autograd as ag
        import pcldetect.cli as cli
        import pcldetect.optim as optim
        import pcldetect.trainer as trainer

        def padding(args, kwargs, result):
            return result.size - sum(len(s) for s in args[0]), result.size

        for attr, layer in (
            ("load_subtask1_tsv", "data"), ("load_subtask2_labels", "data"),
            ("stratified_kfold", "data"), ("tokenize", "data"),
            ("pooler", "encoder"), ("save_checkpoint", "encoder"),
            ("load_checkpoint", "encoder"), ("binary_forward", "heads"),
            ("multilabel_forward", "heads"), ("binary_loss", "heads"),
            ("bce_loss", "heads"), ("backward", "autograd"),
            ("prf1_positive", "metrics"), ("macro_f1", "metrics"),
            ("train_fold", "trainer"), ("run_kfold", "trainer"),
        ):
            self.wrap(trainer, attr, f"{layer}.{attr}")
        self.wrap(trainer, "pad_batch", "data.pad_batch", note=padding)
        self.wrap(trainer, "draw_epoch", "sampler.draw_epoch", keep=True)
        self.wrap(trainer, "encode_batch", "encoder.encode_batch",
                  note=lambda args, kwargs, result: result.shape[0])
        self.wrap(trainer, "eval_metric", "trainer.eval_metric",
                  note=lambda args, kwargs, result: len(args[2]))
        for op in OPS:
            self.wrap(ag, op, f"autograd.{op}")
        self.wrap(ag.Tape, "__exit__", "autograd.Tape.__exit__",
                  note=lambda args, kwargs, result: len(args[0]))
        self.wrap(optim.AdamW, "step", "optim.AdamW.step")
        self.wrap(optim.AdamW, "state_dict", "optim.AdamW.state_dict")
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "predict_records", "trainer.predict_records",
                  note=lambda args, kwargs, result: len(args[1]))
        self.wrap(cli, "load_subtask1_tsv", "data.load_subtask1_tsv")
        self.wrap(cli, "load_subtask2_labels", "data.load_subtask2_labels")
        self.wrap(cli, "write_predictions", "ensemble.write_predictions")
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- storage -----------------------------------------------------------

    def dump(self, path) -> None:
        idx = sorted(self.notes)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_of=np.array(self.name_of, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            note_index=np.array(idx, dtype=np.int64),
            note_value=np.array([self.notes[i] for i in idx], dtype=float).reshape(-1, 2),
        )

    def absorb(self, path) -> None:
        """Append the spans another process dumped (its roots stay roots)."""
        with np.load(path) as d:
            offset = len(self.start)
            remap = [self._id(str(n)) for n in d["names"]]
            self.name_of.extend(remap[k] for k in d["name_of"])
            self.parent.extend(int(p) + offset if p >= 0 else -1 for p in d["parent"])
            self.start.extend(d["start"].tolist())
            self.end.extend(d["end"].tolist())
            for i, v in zip(d["note_index"], d["note_value"]):
                self.notes[int(i) + offset] = (float(v[0]), float(v[1]))

    # -- metrics -----------------------------------------------------------

    def per_layer_metrics(self, rounds: int) -> dict:
        """Per-layer figures over every recorded span (set-up, rounds, checks).

        Module-level times are inclusive; per-op times are self time, the
        span minus the part of it its child spans cover. GC figures are per
        round.
        """
        n = len(self.start)
        name_of = np.array(self.name_of, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        mode_ids = {"train": 1, "eval": 2}
        setter = {self._ids[k]: mode_ids[v] for k, v in _MODE_OF.items() if k in self._ids}
        mode = np.zeros(n, dtype=np.int64)
        for i in range(n):  # a parent always precedes its children
            inherited = mode[parent[i]] if parent[i] >= 0 else 0
            mode[i] = setter.get(self.name_of[i], inherited)
        note, note2 = np.zeros(n), np.zeros(n)
        for i, (a, b) in self.notes.items():
            note[i], note2[i] = a, b

        def sel(*names, in_mode=None):
            m = np.isin(name_of, [self._ids[x] for x in names if x in self._ids])
            return m & (mode == mode_ids[in_mode]) if in_mode else m

        def total(mask, values=dur):
            return float(values[mask].sum())

        def mean(mask, values=dur):
            return float(values[mask].mean()) if mask.any() else 0.0

        def per(num, den):
            return num / den if den else 0.0

        steps = int(sel("autograd.backward").sum())
        folds = int(sel("trainer.train_fold").sum())
        evals = sel("trainer.eval_metric")
        eval_fwd = sel("encoder.encode_batch", in_mode="eval")
        saves = sel("encoder.save_checkpoint")
        cli_main = sel("cli.main")
        under_cli = sel("trainer.predict_records") & np.isin(parent, np.flatnonzero(cli_main))
        encoder = ("encoder.encode_batch", "encoder.pooler")
        heads = ("heads.binary_forward", "heads.multilabel_forward")
        losses = ("heads.binary_loss", "heads.bce_loss")
        ms, us = 1e3, 1e6

        metrics = {
            "data.load_ms": mean(sel("data.load_subtask1_tsv", "data.load_subtask2_labels")) * ms,
            "data.tokenize_us_per_example": mean(sel("data.tokenize")) * us,
            "data.stratified_kfold_ms": mean(sel("data.stratified_kfold")) * ms,
            "sampler.draw_epoch_ms": mean(sel("sampler.draw_epoch")) * ms,
            "autograd.tape_nodes_per_step": mean(sel("autograd.Tape.__exit__"), note),
            "autograd.backward_ms_per_step": per(total(sel("autograd.backward")), steps) * ms,
            "autograd.gc_pause_s": per(sum(s for _, s in self.gc_pauses), rounds),
            "autograd.gc_gen2_collections":
                per(sum(1 for g, _ in self.gc_pauses if g == 2), rounds),
            "encoder.forward_train_ms_per_step":
                per(total(sel(*encoder, in_mode="train")), steps) * ms,
            "encoder.forward_eval_us_per_example":
                per(total(sel(*encoder, in_mode="eval")), total(eval_fwd, note)) * us,
            "encoder.save_checkpoint_ms": mean(saves) * ms,
            "encoder.load_checkpoint_ms": mean(sel("encoder.load_checkpoint")) * ms,
            "heads.forward_ms_per_step": per(total(sel(*heads, in_mode="train")), steps) * ms,
            "heads.loss_ms_per_step": per(total(sel(*losses, in_mode="train")), steps) * ms,
            "optim.step_ms": mean(sel("optim.AdamW.step")) * ms,
            "optim.state_dict_ms_per_fold": per(total(sel("optim.AdamW.state_dict")), folds) * ms,
            "trainer.eval_s_per_fold": per(total(evals), folds),
            "trainer.eval_examples_per_s": per(total(evals, note), total(evals)),
            "trainer.train_step_ms": per(
                total(sel("trainer.train_fold")) - total(evals)
                - total(saves & (mode == mode_ids["train"])), steps) * ms,
            "metrics.score_ms_per_eval": per(
                total(sel("metrics.prf1_positive", "metrics.macro_f1")), int(evals.sum())) * ms,
            "cli.predict_overhead_ms":
                per(total(cli_main) - total(under_cli), int(cli_main.sum())) * ms,
            "ensemble.write_predictions_ms": mean(sel("ensemble.write_predictions")) * ms,
        }
        for m in ("train", "eval"):
            pads = sel("data.pad_batch", in_mode=m)
            metrics[f"data.padding_fraction.{m}"] = per(total(pads, note), total(pads, note2))
        for op in OPS:
            name = f"autograd.{op}"
            metrics[f"{name}.train_ms_per_step"] = (
                per(total(sel(name, in_mode="train"), self_t), steps) * ms)
            metrics[f"{name}.eval_ms_per_batch"] = (
                per(total(sel(name, in_mode="eval"), self_t), int(eval_fwd.sum())) * ms)
        return metrics
