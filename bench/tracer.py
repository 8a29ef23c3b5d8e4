"""Span recorder that times calls into cubelab's layers from outside.

`Recorder.install()` replaces every public function of the traced modules,
and the score and log-weight methods of the model classes, with a wrapper
that records one span per call: name, start, end, parent span and the
benchmark operation it belongs to. A function imported by name into another
module (`from .scores import tabulate_scores`) is replaced there too, since
that module calls its own binding. Spans stay in memory; `uninstall()` puts
the originals back and `summary()` reduces the spans to per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("statespace", "models", "scores", "kernels", "ctmc", "analysis", "simulate", "cli")
MODEL_METHODS = ("log_weight_signs", "glauber_score_signs", "stein_score_signs", "log_weight")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op, error]
        self.op: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        pkg = importlib.import_module("cubelab")
        modules = [importlib.import_module(f"cubelab.{layer}") for layer in LAYERS]
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules + [pkg]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        models = importlib.import_module("cubelab.models")
        for cls in [models.TargetModel, *models.TargetModel.__subclasses__()]:
            for attr in MODEL_METHODS:
                if attr in vars(cls):
                    self._patch(cls, attr, self._wrap(f"models.{attr}", vars(cls)[attr]))

    def run_op(self, label: str, fn):
        """Run one benchmark operation as a root span that its calls hang from."""
        self.op = label
        try:
            return self._wrap("bench.op", fn)()
        finally:
            self.op = None

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, error in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "error": error}) + "\n")

    def summary(self, scale: dict[str, float]) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, durations, errors.

        Times of an operation's spans are multiplied by `scale[op]`.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for k, (name, start, end, _, op, error) in enumerate(self.spans):
            f = scale.get(op, 1.0)
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "durations": [], "errors": {}})
            entry["calls"] += 1
            entry["s"] += (end - start) * f
            entry["self_s"] += (end - start - child_time[k]) * f
            entry["durations"].append((end - start) * f)
            if error is not None:
                entry["errors"][error] = entry["errors"].get(error, 0) + 1
        return out
