"""Spans recorded around the library's public functions, for the traced run.

A :class:`Tracer` keeps every span in memory: name, start, end, the span
that was open when it began (its parent) and the op it belongs to. While
installed, each target function is replaced, wherever a ``dmfnet`` module
holds it by name, with a wrapper that records a span and counts the
exceptions that pass through it. ``restore`` puts the originals back.
Nothing here changes what the library computes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from math import prod


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 at top level
    op: object         # op id given to Tracer.op, None outside ops
    work: dict | None  # counts measured at the call: macs, bytes, tape size


# -- what the work counts come from ------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _kernel_tag(spec):
    k = spec.kernel
    return f"k{k[0]}" if k == (k[0],) * 3 else "k" + "x".join(map(str, k))


def _conv_macs(spec, out):
    """Multiply-adds of one conv pass: weight size times output voxels."""
    return prod(spec.weight_shape) * out.shape[0] * prod(out.shape[2:])


def _conv_label(base):
    def label(args, kwargs):
        return f"{base}.{_kernel_tag(_arg(args, kwargs, 2, 'spec'))}"
    return label


def _conv_forward_work(args, kwargs, result):
    return {"macs": _conv_macs(_arg(args, kwargs, 2, "spec"), result)}


def _conv_input_grad_work(args, kwargs, result):
    return {"macs": _conv_macs(_arg(args, kwargs, 2, "spec"), _arg(args, kwargs, 0, "grad_out"))}


def _conv_weight_grad_work(args, kwargs, result):
    return {"macs": _conv_macs(_arg(args, kwargs, 2, "spec"), _arg(args, kwargs, 1, "grad_out"))}


def _bytes_work(args, kwargs, result):
    # computed, not measured: the first array read plus the array written
    return {"bytes": args[0].nbytes + result.nbytes}


def _tape_work(args, kwargs, result):
    """Node count and bytes of recorded activations of the GradTape."""
    tape = _arg(args, kwargs, 0, "tape")
    return {"nodes": len(tape.nodes),
            "bytes": sum(v.data.nbytes for v in tape.nodes if v.op != "param")}


RECORD_OPS = ("t_conv3d", "t_batch_norm", "t_relu", "t_add", "t_concat_channels",
              "t_trilinear_upsample", "t_softmax_channels", "t_branch_weighted_sum")

# (module, attribute, span name, label(args, kwargs) or None, work(args, kwargs, result) or None)
TARGETS = (
    ("dmfnet.ops", "conv3d", "ops.conv3d", _conv_label("ops.conv3d"), _conv_forward_work),
    ("dmfnet.ops", "conv3d_input_grad", "ops.conv3d_input_grad",
     _conv_label("ops.conv3d_input_grad"), _conv_input_grad_work),
    ("dmfnet.ops", "conv3d_weight_grad", "ops.conv3d_weight_grad",
     _conv_label("ops.conv3d_weight_grad"), _conv_weight_grad_work),
    ("dmfnet.ops", "trilinear_upsample", "ops.trilinear_upsample", None, _bytes_work),
    ("dmfnet.ops", "trilinear_upsample_grad", "ops.trilinear_upsample_grad", None, _bytes_work),
    *(("dmfnet.ops", n, f"ops.{n}", None, None)
      for n in ("batch_norm", "batch_norm_stats", "batch_norm_apply", "relu", "add",
                "concat_channels", "softmax_channels")),
    ("dmfnet.autograd", "backward", "autograd.backward", None, _tape_work),
    *(("dmfnet.autograd", n, "autograd.record", None, None) for n in RECORD_OPS),
    *(("dmfnet.blocks", f"{c}.forward", f"blocks.{c}.forward", None, None)
      for c in ("MFUnit", "DMFUnit", "Multiplexer")),
    ("dmfnet.network", "Network.forward", "network.forward", None, None),
    ("dmfnet.network", "predict_labels", "network.predict_labels", None, None),
    ("dmfnet.losses", "generalized_dice_loss", "losses.generalized_dice_loss", None, None),
    ("dmfnet.losses", "dice_region", "losses.dice_region", None, None),
    *(("dmfnet.data", n, f"data.{n}", None, None)
      for n in ("load_case", "normalize", "load_params", "augment")),
    ("dmfnet.training", "train_step", "training.train_step", None, None),
    ("dmfnet.training", "adam_step", "training.adam_step", None, None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))


def _holders(module_name, attr):
    """(owner, attribute name) pairs through which callers reach the target.

    A method is reached through its class. A function is reached through
    every loaded dmfnet module that holds it, since callers such as
    ``training`` import names like ``generalized_dice_loss`` directly.
    """
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return [(getattr(module, cls_name), meth)]
    target = getattr(module, attr)
    holders = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dmfnet" or name.startswith("dmfnet.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is target:
                holders.append((mod, key))
    return holders


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.errors = Counter()
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op, None))
        self._stack.append(i)
        return i

    def end(self, i):
        self.spans[i].end = self.clock()
        self._stack.pop()

    def wrap(self, fn, name, label=None, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.begin(label(args, kwargs) if label else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.end(i)
            if work is not None:
                self.spans[i].work = work(args, kwargs, result)
            return result
        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        for module_name, attr, name, label, work in TARGETS:
            holders = _holders(module_name, attr)
            if not holders:
                raise RuntimeError(f"trace target {module_name}.{attr} not found")
            original = getattr(*holders[0])
            wrapper = self.wrap(original, name, label, work)
            for owner, key in holders:
                self._saved.append((owner, key, getattr(owner, key)))
                setattr(owner, key, wrapper)

    def restore(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed_wrappers(self):
        try:
            self.install()
            yield self
        finally:
            self.restore()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, "work": s.work}) + "\n")


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out
