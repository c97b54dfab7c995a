"""A seeded table of conv specs, each pass against the float64 loop oracles.

Every case is drawn from a fixed seed and its index: groups (1, 2 or 4)
with 1-4 channels per group on each side, per-axis kernel (1 or 3), stride
(1 on every axis in half the cases, so that both contraction sides occur,
else 1-3 per axis) and dilation (1-3), padding (0 to same + 1), one view or
three views of a 3x3x3 kernel, extents 1-9, batch 1 or 2, with or without a
BN affine read through ``bn=``, and a ``SLAB_BYTES`` from under one plane of
the operand to all of it. A case whose output collapses must raise
``ShapeError``; any other runs its forward, input gradient and weight
gradient, each within 1e-12 of :mod:`oracles`, and, where the conv has one
view, again with ``ops._narrowing`` forced either way.
"""

import numpy as np
import pytest

from dmfnet import ops
from dmfnet.errors import ShapeError

from oracles import conv3d_grads_reference, conv3d_reference

SEED = 31
CASES = 200


def _case(index):
    """(spec, x, bn, slab_bytes) of case ``index``: ``bn`` is None or a BN
    affine (mean, var, gamma, beta, eps), ``slab_bytes`` None for the
    default SLAB_BYTES."""
    rng = np.random.default_rng([SEED, index])
    groups = int(rng.choice([1, 2, 4]))
    c_in, c_out = (groups * rng.integers(1, 5, size=2)).tolist()
    stride = rng.integers(1, 4, size=3).tolist() if rng.random() < 0.5 else 1
    if rng.random() < 0.25:  # three views of a 3x3x3 kernel, as a DMF unit's branches
        kernel = (3, 3, 3)
        dilations = rng.integers(1, 4, size=(3, 3))
        # views must give one output extent: padding = dilation + a shared offset
        shift = [int(rng.integers(-d.min(), 2)) for d in dilations.T]
        views = tuple((tuple(d.tolist()), tuple((d + shift).tolist())) for d in dilations)
    else:
        kernel = tuple(rng.choice([1, 3], size=3).tolist())
        dilation = rng.integers(1, 4, size=3).tolist()
        padding = [int(rng.integers(0, d * (k - 1) // 2 + 2)) for k, d in zip(kernel, dilation)]
        views = ((dilation, padding),)
    spec = ops.ConvSpec(c_in, c_out, kernel=kernel, stride=stride, groups=groups, views=views)
    x = rng.standard_normal((int(rng.integers(1, 3)), c_in) + tuple(rng.integers(1, 10, size=3)))
    bn = None
    if rng.random() < 0.5:
        bn = (rng.standard_normal(c_in), rng.uniform(0.5, 2, c_in), rng.standard_normal(c_in),
              rng.standard_normal(c_in), 1e-5)
    slab_bytes = None
    if rng.random() < 0.8:
        plane = x[:, :, 0].nbytes
        slab_bytes = int(np.exp(rng.uniform(np.log(plane / 2), np.log(x.nbytes))))
    return spec, x, bn, slab_bytes


def _reference(a, w, g, spec):
    """(forward, input gradient, weight gradient) of the conv of ``a`` by the
    loop oracles: one oracle conv per view, with that view's block of
    ``w``."""
    cig = spec.c_in // spec.groups
    y, gx, gw = 0, 0, []
    for v, (dilation, padding) in enumerate(spec.views):
        wv = w[:, v * cig:(v + 1) * cig]
        args = spec.stride, dilation, padding, spec.groups
        y = y + conv3d_reference(a, wv, *args)
        dx, dw = conv3d_grads_reference(a, wv, g, *args)
        gx = gx + dx
        gw.append(dw)
    return y, gx, np.concatenate(gw, axis=1)


def _assert_close(got, want, what):
    assert got.shape == want.shape, what
    err = (np.abs(got - want) / np.maximum(np.abs(want), 1.0)).max()
    assert err < 1e-12, f"{what}: error {err:.3g}"


@pytest.mark.parametrize("index", range(CASES))
def test_conv_passes_match_the_oracles(monkeypatch, index):
    spec, x, bn, slab_bytes = _case(index)
    case = f"seed {SEED} case {index}: {spec}, x {x.shape}, bn {bn is not None}, slab {slab_bytes}"
    if slab_bytes is not None:
        monkeypatch.setattr(ops, "SLAB_BYTES", slab_bytes)
    rng = np.random.default_rng([SEED, index, 1])
    w = rng.standard_normal(spec.weight_shape)
    try:
        out_spatial = spec.out_spatial(x.shape[2:])
    except ShapeError:
        with pytest.raises(ShapeError):
            ops.conv3d(x, w, spec, bn=bn)
        return
    a = x
    if bn is not None:  # relu(batch_norm(x)), as the oracle's operand
        mean, var, gamma, beta = (np.reshape(p, (1, -1, 1, 1, 1)) for p in bn[:4])
        a = np.maximum(gamma * (x - mean) / np.sqrt(var + bn[4]) + beta, 0)
    g = rng.standard_normal((x.shape[0], spec.c_out) + out_spatial)
    want = _reference(a, w, g, spec)
    # one view: the rule's side, then each side forced where both are possible
    for side in [None] + ([True, False] if len(spec.views) == 1 else []):
        if side is not None:
            monkeypatch.setattr(ops, "_narrowing", lambda s, span=1, side=side:
                                side and s.stride == (1, 1, 1) and len(s.views) == 1)
        got = (ops.conv3d(x, w, spec, bn=bn), ops.conv3d_input_grad(g, w, spec, x.shape),
               ops.conv3d_weight_grad(x, g, spec, bn=bn))
        for name, result, expect in zip(("forward", "input grad", "weight grad"), got, want):
            _assert_close(result, expect, f"{case}, side {side}, {name}")
