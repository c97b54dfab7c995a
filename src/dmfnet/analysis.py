"""Parameter and FLOPs accounting over built blocks and networks.

Conventions: parameters are exact integer counts of learnable scalars
(conv weights, batch-norm gamma/beta, branch weights),
one row per Parameter in ``parameters()`` order. FLOPs count multiply-add
pairs of convolution layers only, i.e. k_d*k_h*k_w*c_in*c_out/g per output
voxel; BN, ReLU, interpolation and softmax are excluded. Totals are
reported in millions / units of 1e9.

FLOPs are read from the conv nodes of a recorded eval forward of zeros, so
the forward pass is the only description of the graph. A Network is probed
at its smallest legal input, 1 x c x f^3 for its downsample factor f, and
the multiply-adds are scaled by n*d*h*w / f^3. That is exact: every layer's
extent is the input's divided by a power of two that divides f.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from math import prod

import numpy as np

from . import autograd as ag
from .network import Network

# a Parameter's last name component gives its row kind
_KINDS = {"weight": "conv", "gamma": "bn", "beta": "bn", "omega": "omega"}


@dataclass(frozen=True)
class LayerRow:
    name: str
    kind: str
    params: int
    flops: int


@dataclass
class ComplexityReport:
    """Per-layer accounting rows plus totals."""

    rows: list = field(default_factory=list)
    input_shape: tuple | None = None

    @property
    def total_params(self):
        return sum(r.params for r in self.rows)

    @property
    def total_flops(self):
        return sum(r.flops for r in self.rows)

    @property
    def params_millions(self):
        return self.total_params / 1e6

    @property
    def flops_g(self):
        return self.total_flops / 1e9

    def to_text(self, per_layer=True):
        lines = []
        if per_layer:
            lines.append(f"{'layer':44s} {'kind':6s} {'params':>12s} {'flops':>16s}")
            for r in self.rows:
                lines.append(f"{r.name:44s} {r.kind:6s} {r.params:>12d} {r.flops:>16d}")
        shape = "n/a" if self.input_shape is None else "x".join(map(str, self.input_shape))
        lines.append(f"total params: {self.params_millions:.2f}M ({self.total_params})")
        lines.append(f"total conv FLOPs at input {shape}: {self.flops_g:.2f}G ({self.total_flops})")
        return "\n".join(lines)

    def to_json(self):
        return json.dumps({
            "input_shape": list(self.input_shape) if self.input_shape else None,
            "total_params": self.total_params,
            "total_flops": self.total_flops,
            "rows": [
                {"name": r.name, "kind": r.kind, "params": r.params, "flops": r.flops}
                for r in self.rows
            ],
        }, indent=2)


def _conv_macs(block, shape):
    """Multiply-adds per conv weight Parameter (keyed by id) of an eval
    forward of zeros at ``shape``. A tied weight sums all its convs."""
    dtype = block.parameters()[0].data.dtype
    _, tape = ag.forward_record(block, np.zeros(shape, dtype), mode="eval")
    macs = Counter()
    for v in tape.nodes:
        if v.op == "conv3d":
            w = v.parents[1]  # the weight's leaf; parents[0] is the input
            macs[id(w.param)] += w.data.size * v.data.shape[0] * prod(v.data.shape[2:])
    return macs


def count_flops(block, input_shape=None):
    """Per-Parameter counts for any block or network, plus conv multiply-adds
    when ``input_shape`` (n, c, d, h, w) is given; without it, params only.

    A Network raises ShapeError for a shape it could not run: not five
    positive sizes, the wrong channel count or indivisible spatial dims.
    """
    macs, scale, div = Counter(), 1, 1
    if input_shape is not None:
        input_shape = tuple(input_shape)
        probe = input_shape
        if isinstance(block, Network):
            block._check_input(input_shape)
            f = block.cfg.downsample_factor
            probe = (1, input_shape[1], f, f, f)
            scale, div = input_shape[0] * prod(input_shape[2:]), f ** 3
        macs = _conv_macs(block, probe)
    rows = [LayerRow(p.name, _KINDS[p.name.rpartition(".")[2]], p.data.size,
                     macs[id(p)] * scale // div)
            for p in block.parameters()]
    return ComplexityReport(rows=rows, input_shape=input_shape)


def report_table(reports, labels):
    """Render a comparison table: one row per (label, ComplexityReport)."""
    w = max(12, max(len(label) for label in labels) + 2)
    lines = [f"{'Model':{w}s} {'Params(M)':>10s} {'FLOPs(G)':>10s}"]
    for label, rep in zip(labels, reports):
        flops = f"{rep.flops_g:10.2f}" if rep.input_shape is not None else f"{'n/a':>10s}"
        lines.append(f"{label:{w}s} {rep.params_millions:10.2f} {flops}")
    return "\n".join(lines)
