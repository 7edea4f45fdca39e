"""Span tracing of vulncascade from outside the package.

``Tracer.install()`` replaces the package's public functions and methods with
wrappers that record a span per call: its name, its duration, and the time
its child spans covered.  Nothing under ``src/`` changes; the wrappers are
removed again by ``uninstall()``.  Spans are aggregated in memory as they
close (calls, inclusive seconds, self seconds per name), which is all the
per-layer metrics and the self-time table need.

Layer spans are named ``layers.stage<s>.<type>_<i>.<forward|backward>``: the
stage comes from the model that owns the layer and ``i`` counts layers of one
type in that model from 1.  Activations are one span per stage.  Conv1D,
LSTM and Dense spans also carry FLOPs and bytes moved, computed from tensor
shapes (not counted by hardware).
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
import weakref
from collections import defaultdict

PACKAGE = "vulncascade"

# (module, attribute) -> span name; functions are rebound in every package
# module that imported them by name.
FUNCTIONS = {
    ("normalizer", "tokenize"): "normalizer.tokenize",
    ("normalizer", "classify_identifiers"): "normalizer.classify_identifiers",
    ("normalizer", "normalize"): "normalizer.normalize",
    ("normalizer", "normalize_source"): "normalizer.normalize_source",
    ("vocab", "build_vocab"): "vocab.build_vocab",
    ("vocab", "encode"): "vocab.encode",
    ("vocab", "encode_batch"): "vocab.encode_batch",
    ("vocab", "decode"): "vocab.decode",
    ("dataset", "load_corpus"): "dataset.load_corpus",
    ("dataset", "split"): "dataset.split",
    ("dataset", "build_label_map"): "dataset.build_label_map",
    ("dataset", "class_stats"): "dataset.class_stats",
    ("archive", "save_archive"): "archive.save_archive",
    ("archive", "load_archive"): "archive.load_archive",
    ("serialize", "load_model"): "serialize.load_model",
    ("serialize", "save_model"): "serialize.save_model",
    ("models", "build_model"): "models.build_model",
    ("models", "predict_two_stage"): "models.predict_two_stage",
    ("models", "predict_two_stage_encoded"): "models.predict_two_stage_encoded",
    ("training", "predict_batched"): "training.predict_batched",
    ("losses", "bce_loss"): "losses.loss",
    ("losses", "cce_loss"): "losses.loss",
    ("smote", "oversample"): "smote.oversample",
    ("metrics", "confusion"): "metrics.scores",
    ("metrics", "scores"): "metrics.scores",
    ("cli", "main"): "cli.main",
    ("cli", "cmd_preprocess"): "cli.cmd_preprocess",
    ("cli", "cmd_train"): "cli.cmd_train",
    ("cli", "cmd_evaluate"): "cli.cmd_evaluate",
    ("cli", "cmd_scan"): "cli.cmd_scan",
    ("cli", "split_functions"): "cli.split_functions",
    ("cli", "_reencode_rows"): "cli.reencode_rows",
}

# (module, class, method) -> span name
METHODS = {
    ("vocab", "Vocabulary", "load"): "vocab.load",
    ("vocab", "Vocabulary", "save"): "vocab.save",
    ("vocab", "Vocabulary", "content_hash"): "vocab.content_hash",
    ("optim", "Optimizer", "step"): "optim.step",
}

LAYER_CLASSES = ("Embedding", "Conv1D", "MaxPool1D", "BatchNorm1D", "LSTM",
                 "Dense", "Flatten", "Activation")

FLOAT_BYTES = 8


def layer_cost(layer, x_shape) -> tuple[int, int]:
    """Forward (FLOPs, bytes moved) of one call, from shapes alone.

    Multiply-adds count two FLOPs.  Bytes are the float64 input, parameters
    and output each touched once: a lower bound on memory traffic.
    """
    kind = type(layer).__name__
    if kind == "Conv1D":
        b, length, c = x_shape
        out = length - layer.kernel_size + 1
        params = layer.filters * c * layer.kernel_size
        flops = 2 * b * out * params
        moved = b * length * c + params + b * out * layer.filters
    elif kind == "Dense":
        b, i = x_shape
        params = i * layer.out_features
        flops = 2 * b * params
        moved = b * i + params + b * layer.out_features
    elif kind == "LSTM":
        b, length, d = x_shape
        h = layer.units
        params = 4 * h * (d + h)
        # gate GEMMs plus about ten elementwise ops per cell and step
        flops = 2 * b * length * params + 10 * b * length * h
        moved = b * length * d + params + b * length * h
    else:
        return 0, 0
    return flops, moved * FLOAT_BYTES


class Tracer:
    """Aggregates spans by name; see the module docstring."""

    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.paused = False
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._layer_names = weakref.WeakKeyDictionary()
        self._layer_cost = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def _run(self, name, fn, args, kwargs):
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            entry = self.spans[name]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    @contextlib.contextmanager
    def pause(self):
        """Run benchmark-side checks through the package without recording."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def count(self, name: str, amount: float) -> None:
        if not self.paused:
            self.counts[name] += amount

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name_of, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            result = tracer._run(name_of(args), fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Point every package module's reference to original at wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
                for name in ("normalizer", "vocab", "dataset", "archive",
                             "serialize", "models", "layers", "training",
                             "losses", "optim", "smote", "metrics", "cli")}
        after = {
            "normalizer.tokenize":
                lambda a, r: self.count("normalizer.tokens_lexed", len(r)),
            "archive.save_archive":
                lambda a, r: self.count("archive.bytes_written",
                                        os.path.getsize(a[1])),
            "smote.oversample": self._count_synthesized,
        }
        for (mod, attr), name in FUNCTIONS.items():
            original = getattr(mods[mod], attr)
            self._rebind(original, self._wrap(
                original, lambda args, n=name: n, after.get(name)))
        for (mod, cls_name, meth), name in METHODS.items():
            cls = getattr(mods[mod], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__,
                                                 lambda args, n=name: n))
            else:
                wrapped = self._wrap(raw, lambda args, n=name: n)
            self._set(cls, meth, wrapped)
        self._install_training(mods)
        self._install_models(mods["models"].Model)
        for cls_name in LAYER_CLASSES:
            self._install_layer(getattr(mods["layers"], cls_name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _count_synthesized(self, args, result):
        before = sum(len(rows) for rows in args[0].values())
        after = sum(len(rows) for rows in result.values())
        self.count("smote.rows_synthesized", after - before)

    def _install_training(self, mods):
        training = mods["training"]
        for attr, base in (("train", "training.train"),
                           ("accuracy_of", "training.accuracy_of")):
            original = getattr(training, attr)
            self._rebind(original, self._wrap(
                original,
                lambda args, b=base: f"{b}.stage{args[0].spec.stage}"))

    def _install_models(self, model_cls):
        tracer = self
        forward = model_cls.__dict__["forward"]
        backward = model_cls.__dict__["backward"]

        def name_layers(model):
            stage = f"stage{model.spec.stage}"
            seen: dict[str, int] = defaultdict(int)
            for layer in model.layers:
                kind = type(layer).__name__.lower()
                if kind == "activation":
                    tracer._layer_names[layer] = f"layers.{stage}.activation"
                    continue
                seen[kind] += 1
                tracer._layer_names[layer] = f"layers.{stage}.{kind}_{seen[kind]}"

        def traced_forward(model, ids, training=False):
            if tracer.paused:
                return forward(model, ids, training)
            if model.layers and model.layers[0] not in tracer._layer_names:
                name_layers(model)
            stage = model.spec.stage
            rows = len(ids)
            start = time.perf_counter()
            out = tracer._run(f"models.stage{stage}.forward", forward,
                              (model, ids, training), {})
            if rows == 1:
                bucket = "b1"
            elif training:
                bucket = f"b{64 if stage == 1 else 32}"
            else:
                bucket = "b256"
            key = f"models.stage{stage}.forward.{bucket}"
            tracer.count(key + ".seconds", time.perf_counter() - start)
            tracer.count(key + ".rows", rows)
            tracer.count(f"models.stage{stage}.eval_samples", rows)
            if training:
                tracer.count(f"training.stage{stage}.steps", 1)
            return out

        def traced_backward(model, upstream):
            if tracer.paused:
                return backward(model, upstream)
            return tracer._run(f"models.stage{model.spec.stage}.backward",
                               backward, (model, upstream), {})

        self._set(model_cls, "forward", traced_forward)
        self._set(model_cls, "backward", traced_backward)

    def _install_layer(self, cls):
        tracer = self
        forward = cls.__dict__["forward"]
        backward = cls.__dict__["backward"]
        kind = cls.__name__.lower()

        def traced_forward(layer, x, training=False):
            if tracer.paused:
                return forward(layer, x, training)
            name = tracer._layer_names.get(layer, f"layers.{kind}")
            flops, moved = layer_cost(layer, getattr(x, "shape", ()))
            if flops:
                tracer._layer_cost[layer] = (flops, moved)
                tracer.count(name + ".flops", flops)
                tracer.count(name + ".bytes", moved)
            return tracer._run(name + ".forward", forward,
                               (layer, x, training), {})

        def traced_backward(layer, upstream):
            if tracer.paused:
                return backward(layer, upstream)
            name = tracer._layer_names.get(layer, f"layers.{kind}")
            flops, moved = tracer._layer_cost.get(layer, (0, 0))
            if flops:
                # weight and input gradients: two GEMMs of forward size,
                # touching input, upstream, parameters and both gradients
                tracer.count(name + ".flops", 2 * flops)
                tracer.count(name + ".bytes", 2 * moved)
            return tracer._run(name + ".backward", backward,
                               (layer, upstream), {})

        self._set(cls, "forward", traced_forward)
        self._set(cls, "backward", traced_backward)

    # -- reporting ---------------------------------------------------------

    def table(self, wall: float) -> list[str]:
        """Self time per module and per span name, largest first."""
        modules: dict[str, float] = defaultdict(float)
        for name, (_, _, own) in self.spans.items():
            modules[name.split(".", 1)[0]] += own
        traced = sum(modules.values())
        lines = [f"{'module':<44}{'self s':>10}{'share':>8}"]
        for mod, own in sorted(modules.items(), key=lambda kv: -kv[1]):
            lines.append(f"{mod:<44}{own:>10.4f}{own / wall:>8.1%}")
        lines.append(f"{'(benchmark, untraced code)':<44}"
                     f"{wall - traced:>10.4f}{(wall - traced) / wall:>8.1%}")
        lines.append("")
        lines.append(f"{'span':<44}{'calls':>8}{'self s':>10}{'incl s':>10}")
        for name, (calls, incl, own) in sorted(self.spans.items(),
                                               key=lambda kv: -kv[1][2]):
            lines.append(f"{name:<44}{calls:>8}{own:>10.4f}{incl:>10.4f}")
        return lines
