"""Dense rank-5 volume kernels: 3D convolution (grouped/strided/dilated),
batch norm, ReLU, trilinear upsampling, channel concat, residual add and
per-voxel softmax.

Volumes are C-contiguous numpy arrays of shape (n, c, d, h, w), float32 by
default. Every kernel is a pure function of its inputs (except that train-mode
:func:`batch_norm` updates the running statistics of its BatchNorm3d in place,
through ``BatchNorm3d.moments``), deterministic, and safe to call concurrently
on distinct arrays. The network runs BN+ReLU as one op (``relu=True`` of
:func:`batch_norm_apply`), fuses its residual adds and decoder concats into
``t_conv3d(residual=)`` and ``t_upsample_concat``, and runs a DMF unit's
branches and their weighted sum as one conv (``t_conv3d(omega=)``). So
:func:`batch_norm`, :func:`relu`, :func:`add` and :func:`concat_channels`,
like autograd's ``t_relu``, ``t_add``, ``t_concat_channels`` and
``t_branch_weighted_sum``, have no caller in the library: they stay only
because the benchmark's tracer (``perfbench/spans.py``) wraps them by name.
Autograd's ``t_batch_norm``, which the tracer wraps too, has one caller left,
``BatchNorm3d.forward``, which no unit calls. Do not add callers back.

The batch-norm passes (statistics, apply with its ReLU, and autograd's
backward rule) run one block of full channels at a time, about BLOCK_BYTES
each (:func:`channel_blocks`), so each block's passes run while it is in
cache and their scratch is a few blocks, not volumes. Their per-channel
sums are :func:`channel_sum`'s, which add in numpy's order for an entire
array, so every blocked pass is bit-identical to its unblocked form.

Each conv pass contracts on its narrow side, chosen from the spec's shapes
(see _narrowing), in one of three ways, each reading its operand in
consecutive bands of whole depth planes from one loop (_bands): as many
planes as fit SLAB_BYTES and leave room in it for the pass's scratch, one
plane at least. A 1x1x1 stride-1 unpadded conv copies nothing: its columns
are its operand's bands. A stride-1 one-view conv with at most half as many
output as input channels, other than that 1x1x1 one, runs as kn2row: per
band and kernel plane one GEMM Y = W @ x reads the band's planes in place,
and the output accumulates the window of Y that each tap shifts into place;
a band is as many planes as fit their Y in SLAB_BYTES. Every other pass
copies columns, by depth plane (_depth_slabs): per band, each plane's (h, w)
taps are copied once per view and serve every kernel plane that reads the
plane, one GEMM each, where im2col would copy them once per kernel plane; a
band's columns and the GEMM output fit SLAB_BYTES together. A spec's
``views`` make one conv over several dilated views of its operand (a DMF
unit's branches), which always contracts by depth plane: kn2row reads one
dilation in place. The weight gradient contracts (n, g, c_in/g * taps,
voxels) columns of the input with grad_out or, for a narrowing conv, per
band of the input, columns of the depth slice of grad_out that the band
reads with the band.

No pass pads its operand: each tap's window is clipped at the volume border,
and what it would read outside counts as zero. Given a BN affine (``bn=``),
a forward or weight-gradient pass reads relu(batch_norm(x)) in the bands it
would read x in, each plane made once by :func:`batch_norm_apply` into one
reused buffer. So its scratch is one slab plus one band, and its result has
the bits of the same pass over the whole BN+ReLU. The input gradient is a
transposed conv done as gathers: one stride-1 conv per stride phase, reading
the output gradient in place from the phase's own start, so a widening
conv's phases run as kn2row.

Trilinear upsampling multiplies each axis by an interpolation matrix M; its
gradient multiplies by M^T, so it is the exact adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, product
from math import gcd, prod

import numpy as np

from .errors import ConfigError, ShapeError

AXES = ("d", "h", "w")


def _triple(v, name="value"):
    """Normalize an int or length-3 sequence to a (d, h, w) tuple."""
    if isinstance(v, (int, np.integer)):
        return (int(v),) * 3
    t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ConfigError(f"{name} must be an int or length-3 sequence, got {v!r}")
    return t


def check_volume5d(x, name="input"):
    x = np.asarray(x)
    if x.ndim != 5:
        raise ShapeError(f"{name} must be rank-5 (n, c, d, h, w), got shape {x.shape}")
    if any(s <= 0 for s in x.shape):
        raise ShapeError(f"{name} has a zero-sized axis: shape {x.shape}")
    return x


@dataclass(frozen=True)
class ConvSpec:
    """Declarative description of one 3D convolution.

    ``views`` makes it a conv over several dilated views of one operand: one
    (dilation, padding) pair per view, each read with the full kernel, and the
    weight holds one c_in/g block of input channels per view, in view order
    (a DMF unit's branches, :class:`dmfnet.blocks.DMFUnit`). Left empty, the
    spec has the one view (dilation, padding); with views given, dilation and
    padding are the first view's. Every view must give the same output
    extent."""

    c_in: int
    c_out: int
    kernel: tuple = (3, 3, 3)
    stride: tuple = (1, 1, 1)
    dilation: tuple = (1, 1, 1)
    groups: int = 1
    padding: tuple = (0, 0, 0)
    views: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "kernel", _triple(self.kernel, "kernel"))
        object.__setattr__(self, "stride", _triple(self.stride, "stride"))
        views = tuple((_triple(d, "dilation"), _triple(p, "padding"))
                      for d, p in self.views or ((self.dilation, self.padding),))
        object.__setattr__(self, "views", views)
        object.__setattr__(self, "dilation", views[0][0])
        object.__setattr__(self, "padding", views[0][1])
        if self.c_in <= 0 or self.c_out <= 0:
            raise ConfigError(f"channel counts must be positive, got {self.c_in}->{self.c_out}")
        if self.groups <= 0:
            raise ConfigError(f"groups must be positive, got {self.groups}")
        if self.c_in % self.groups or self.c_out % self.groups:
            raise ConfigError(
                f"groups={self.groups} must divide c_in={self.c_in} and c_out={self.c_out}"
            )
        if any(s < 1 for s in self.stride) or any(v < 1 for d, _ in views for v in d):
            raise ConfigError("stride and dilation must be >= 1 per axis")
        if len({tuple(2 * p - d * (k - 1) for k, d, p in zip(self.kernel, *v)) for v in views}) > 1:
            raise ConfigError(f"views {views} give different output extents")

    @property
    def weight_shape(self):
        return (self.c_out, len(self.views) * self.c_in // self.groups) + self.kernel

    @property
    def effective_kernel(self):
        """Extent per axis of the input window an output voxel reads: with one
        view d*(k-1)+1, with several the span of all their windows."""
        return tuple(max(d[ax] * (k - 1) - p[ax] for d, p in self.views)
                     + max(p[ax] for _, p in self.views) + 1 for ax, k in enumerate(self.kernel))

    def out_spatial(self, spatial):
        out = []
        for ax, (size, k, s, d, p) in enumerate(
            zip(spatial, self.kernel, self.stride, self.dilation, self.padding)
        ):
            o = (size + 2 * p - d * (k - 1) - 1) // s + 1
            if o < 1:
                raise ShapeError(
                    f"conv3d output collapses on axis {AXES[ax]}: input {size}, "
                    f"effective kernel {d * (k - 1) + 1}, stride {s}, padding {p}"
                )
            out.append(o)
        return tuple(out)


def same_padding(kernel, dilation=1):
    """Padding that preserves spatial dims at stride 1 (odd kernels only)."""
    kernel = _triple(kernel, "kernel")
    dilation = _triple(dilation, "dilation")
    for k in kernel:
        if k % 2 == 0:
            raise ConfigError(f"same padding needs odd kernels, got {kernel}")
    return tuple(d * (k - 1) // 2 for k, d in zip(kernel, dilation))


def _check_conv_args(x, weight, spec):
    x = check_volume5d(x)
    if x.shape[1] != spec.c_in:
        raise ShapeError(f"input has {x.shape[1]} channels, spec expects c_in={spec.c_in}")
    if weight.shape != spec.weight_shape:
        raise ShapeError(f"weight shape {weight.shape} does not match spec {spec.weight_shape}")
    return x


# Bytes of scratch a conv pass holds at once: a depth band's columns and GEMM
# output, or a band's kn2row GEMM output Y (one plane's at least); and one
# band of its operand (made, for a BN+ReLU operand).
SLAB_BYTES = 8 << 20


def band_planes(x):
    """Depth planes of ``x`` in one band: as many as fit SLAB_BYTES, one at least."""
    return min(x.shape[2], max(1, SLAB_BYTES * x.shape[2] // x.nbytes))


def _bands(x, bn, scratch=0):
    """The operand of a conv pass in consecutive bands of whole depth planes:
    yields (p0, p1, planes p0 .. p1-1 as an (n, c, p1-p0, h, w) array). The
    operand is ``x`` or, with ``bn`` = (mean, var, gamma, beta, eps),
    ``batch_norm_apply(x, *bn, relu=True)``, each band made into one reused
    buffer, so each plane is made once. Either way a band is as many planes
    as fit SLAB_BYTES (:func:`band_planes`) and leave room in it for
    ``scratch`` bytes per plane, one at least: a pass splits a plain operand
    and a BN+ReLU one alike, so both give the same bits."""
    planes = band_planes(x)
    if scratch:
        planes = max(1, min(planes, SLAB_BYTES // scratch))
    for p0 in range(0, x.shape[2], planes):
        p1 = min(x.shape[2], p0 + planes)
        band = x[:, :, p0:p1]
        if bn is not None:
            if not p0:  # the first band is the largest
                buf = np.empty(band.size, dtype=x.dtype)
            band = batch_norm_apply(band, *bn, relu=True,
                                    out=buf[:band.size].reshape(band.shape))
        yield p0, p1, band


def _clip(extent, stride, dilation, start, size, k):
    """Where tap k of outputs 0 .. extent-1 reads inside an axis of ``size``
    voxels, when output o's tap k reads input start + o*stride + k*dilation:
    (lo, hi) of the outputs that do, and the input slice they read; None if
    none does."""
    first = start + k * dilation
    lo = max(0, -(first // stride))  # the first o with first + o*stride >= 0
    hi = min(extent, (size - 1 - first) // stride + 1)
    if lo >= hi:
        return None
    return lo, hi, slice(first + lo * stride, first + (hi - 1) * stride + 1, stride)


def _views(spec):
    """(kernel, dilation, start) of each view of ``spec``: output voxel o's
    tap t of a view reads start + o*stride + t*dilation per axis."""
    return [(spec.kernel, d, tuple(-q for q in p)) for d, p in spec.views]


def _depth_slabs(x, views, stride, groups, out_spatial, bn=None, rows=0):
    """Columns of a conv over one or more views of ``x`` (with ``bn``, its
    BN+ReLU) by depth plane, each input plane's (h, w) taps made once.

    ``views`` lists (kernel, dilation, start) per view: output voxel o's tap
    t of a view reads x at start + o*stride + t*dilation per axis; reads
    outside the volume count as zero. Output plane z's kernel plane a reads
    input plane z*stride + start + a*dilation (depth). So per band of input
    planes (:func:`_bands`) and per view, the columns of the view's kh*kw
    taps of every plane of the band, (n, g, c_in/g * kh * kw, planes * voxels
    per output plane), serve each kernel plane a run of output planes: the
    band keeps its planes grouped by their residue modulo the stride, so each
    run reads consecutive planes. Yields (v, a, vox, cols): view v, kernel
    plane a, the flattened output voxels and their columns, a slice of the
    band's, whose rows follow view v's kernel plane a of a weight reshaped to
    (g, c_out/g, c_in/g, kd, kh * kw). A pass's contractions over these sum
    to the conv, each input plane's taps copied kh*kw times, not once per
    kernel plane that reads it. Kernel planes come last to first, so the runs
    start in increasing order.

    A band's columns and ``rows`` values per output voxel of a run (the
    caller's GEMM output) fit SLAB_BYTES together (one plane at least). Each
    view fills its own buffer, which starts zeroed: a tap's box is the same
    in every plane, so what lies outside it stays zero."""
    n, g, cig = x.shape[0], groups, x.shape[1] // groups
    do, ho, wo = out_spatial
    s, plane = stride[0], ho * wo
    taps = sum(k[1] * k[2] for k, _, _ in views) * x.shape[1] + rows
    boxes = [[[_clip(o, stride[ax], dil[ax], st[ax], size, t) for t in range(k[ax])]
              for ax, o, size in ((1, ho, x.shape[3]), (2, wo, x.shape[4]))]
             for k, dil, st in views]
    for p0, p1, xb in _bands(x, bn, taps * n * plane * x.itemsize):
        if not p0:  # the first band is the largest
            planes = p1
            bufs = [np.zeros((n, g, cig, k[1], k[2], planes, ho, wo), dtype=x.dtype)
                    for k, _, _ in views]
        xg = xb.reshape(n, g, cig, *xb.shape[2:])
        # band plane p0 + r + s*j sits at slot offset[r] + j
        offset = list(accumulate((len(range(r, p1 - p0, s)) for r in range(s)), initial=0))
        for v, ((k, dil, st), buf, (bh, bw)) in enumerate(zip(views, bufs, boxes)):
            for (b, hb), (c, wb), r in product(enumerate(bh), enumerate(bw), range(s)):
                if hb and wb:
                    buf[:, :, :, b, c, offset[r]:offset[r + 1], hb[0]:hb[1], wb[0]:wb[1]] = \
                        xg[:, :, :, r::s, hb[2], wb[2]]
            cols = buf.reshape(n, g, -1, planes * plane)
            for a in reversed(range(k[0])):
                first = st[0] + a * dil[0]  # output plane z reads input plane z*s + first
                z0, z1 = max(0, -((first - p0) // s)), min(do, -((first - p1) // s))
                if z0 < z1:
                    j, r = divmod(z0 * s + first - p0, s)
                    yield v, a, slice(z0 * plane, z1 * plane), \
                        cols[..., (offset[r] + j) * plane:(offset[r] + j + z1 - z0) * plane]


def _depth_weights(wk, views, cig):
    """Per view, per kernel plane a: the (g, c_out/g, c_in/g * kh * kw) block
    of ``wk`` (g, c_out/g, one (c_in/g, kd, kh, kw) block per view) that
    :func:`_depth_slabs`' columns of (v, a) contract with."""
    out, r = [], 0
    for k, _, _ in views:
        t = cig * prod(k)
        block = wk[:, :, r:r + t].reshape(*wk.shape[:2], cig, k[0], k[1] * k[2])
        out.append([block[:, :, :, a].reshape(*wk.shape[:2], -1) for a in range(k[0])])
        r += t
    return out


def _pointwise(spec):
    """A 1x1x1 stride-1 unpadded conv, whose columns are its operand itself."""
    return spec.kernel == (1, 1, 1) and spec.stride == (1, 1, 1) and not any(spec.padding)


def _narrowing(spec, span=1):
    """Whether a stride-1 one-view conv pass contracts on its output side: when
    that side copies at most half of what the input side would. Per voxel
    they copy c_out/g and c_in/g rows; the output side's copies cover
    ``span`` times as many voxels. A 1x1x1 stride-1 unpadded conv never is:
    read from offset 0, neither side copies anything (see _bands). Nor is a
    conv over several views: kn2row reads one dilation in place."""
    return (spec.stride == (1, 1, 1) and len(spec.views) == 1 and not _pointwise(spec)
            and 2 * spec.c_out * span <= spec.c_in)


def _kn2row(x, weight, spec, out, start, bn=None):
    """Stride-1 conv as kn2row: per band of input planes (:func:`_bands`) and
    kernel plane a, one GEMM Y = W[a] @ x over the band's planes that a reads,
    with no column copy, then out += the part of each of the plane's kh*kw
    windows of Y, shifted into place by its tap, that lies inside the volume.
    With ``bn`` x is read as its BN+ReLU (:func:`_bands`).

    Y holds c_out/g * kh * kw rows per input voxel, and a band is as many
    whole planes as fit its Y in SLAB_BYTES, one at least. Each output voxel
    adds its taps kernel plane by kernel plane, first to last."""
    n, g, cig, cog = x.shape[0], spec.groups, spec.c_in // spec.groups, spec.c_out // spec.groups
    kd, kh, kw = spec.kernel
    hi, wi = x.shape[3:]
    do, ho, wo = out.shape[2:]
    plane = hi * wi
    # (kd, g, kh*kw*c_out/g, c_in/g): the taps of one kernel plane stacked as rows
    wk = weight.reshape(g, cog, cig, kd, kh * kw).transpose(3, 0, 4, 1, 2)
    wk = wk.reshape(kd, g, -1, cig)
    dst = out.reshape(n, g, cog, do, ho, wo)
    dst[...] = 0
    bh, bw = ([_clip(o, 1, spec.dilation[ax], start[ax], x.shape[2 + ax], t) for t in range(k)]
              for ax, o, k in ((1, ho, kh), (2, wo, kw)))
    rows = n * spec.c_out * kh * kw * plane  # Y's elements per input plane
    for p0, p1, xb in _bands(x, bn, rows * x.itemsize):
        if not p0:  # the first band is the largest
            buf = np.empty(rows * p1, dtype=x.dtype)
        xf = xb.reshape(n, g, cig, -1)
        for a in range(kd):
            first = start[0] + a * spec.dilation[0]  # output plane z reads input plane z + first
            z0, z1 = max(0, p0 - first), min(do, p1 - first)
            if z0 >= z1:
                continue
            y = buf[:rows * (z1 - z0)].reshape(n, g, -1, (z1 - z0) * plane)
            np.matmul(wk[a], xf[..., (z0 + first - p0) * plane:(z1 + first - p0) * plane], out=y)
            taps = y.reshape(n, g, kh, kw, cog, z1 - z0, hi, wi)
            acc = dst[:, :, :, z0:z1]
            for (b, hb), (c, wb) in product(enumerate(bh), enumerate(bw)):
                if hb and wb:
                    acc[..., hb[0]:hb[1], wb[0]:wb[1]] += taps[:, :, b, c, ..., hb[2], wb[2]]
    return out


def _conv(x, weight, spec, out=None, views=None, bn=None):
    """conv3d without argument checks or bias, into ``out`` (C-contiguous) if
    given. Output voxel o's tap t of a view reads x (or, with ``bn``, its
    BN+ReLU: see :func:`_bands`) at start + o*stride + t*dilation per axis,
    for each (kernel, dilation, start) of ``views`` (the spec's own by
    default, :func:`_views`); reads outside x count as zero. The weight holds
    per output channel one block per view, (c_in/g, kd, kh, kw) each, in view
    order. A narrowing one-view conv is kn2row (:func:`_kn2row`), a 1x1x1
    one read from offset 0 over x's extent contracts x's bands themselves
    (:func:`_bands`), and any other contracts by depth plane
    (:func:`_depth_slabs`)."""
    n, g = x.shape[0], spec.groups
    views = views or _views(spec)
    if out is None:
        out = np.empty((n, spec.c_out) + spec.out_spatial(x.shape[2:]), dtype=x.dtype)
    wk = weight.reshape(g, spec.c_out // g, -1)
    flat = out.reshape(n, g, spec.c_out // g, -1)
    if len(views) == 1 and _narrowing(spec):
        _kn2row(x, weight, spec, out, views[0][2], bn)
    elif (len(views) == 1 and _pointwise(spec) and not any(views[0][2])
          and out.shape[2:] == x.shape[2:]):
        # one column row per group makes an outer product, which BLAS does 5x slower
        contract = np.multiply if wk.shape[2] == 1 else np.matmul
        plane = x[0, 0, 0].size
        for p0, p1, xb in _bands(x, bn):
            contract(wk, xb.reshape(n, g, -1, (p1 - p0) * plane),
                     out=flat[..., p0 * plane:p1 * plane])
    else:
        blocks = _depth_weights(wk, views, x.shape[1] // g)
        flat[...] = 0
        part = None
        for v, a, vox, cols in _depth_slabs(x, views, spec.stride, g, out.shape[2:], bn,
                                            spec.c_out):
            if part is None or part.shape[3] < cols.shape[3]:
                part = y = None  # the old buffer goes before a larger one is made
                part = np.empty(flat.shape[:3] + cols.shape[3:], dtype=x.dtype)
            y = part[..., :cols.shape[3]]
            np.matmul(blocks[v][a], cols, out=y)
            flat[..., vox] += y
    return out


def conv3d(x, weight, spec, bn=None):
    """Grouped, strided, dilated 3D cross-correlation, without bias.

    x: (n, c_in, d, h, w); weight: (c_out, c_in/g, kd, kh, kw), or with
    several views (c_out, views * c_in/g, kd, kh, kw): the sum over the views
    of the conv of x at the view's dilation and padding with its block of
    input channels. Output channel group i reads only input channel group i.
    With ``bn`` = (mean, var, gamma, beta, eps) the conv reads
    ``batch_norm_apply(x, *bn, relu=True)`` instead of x, a band of depth
    planes at a time (:func:`_bands`), never all at once; the output has the
    very bits of the conv of that entire array.
    """
    return _conv(_check_conv_args(x, weight, spec), weight, spec, bn=bn)


def conv3d_input_grad(grad_out, weight, spec, input_shape):
    """Gradient of conv3d w.r.t. its input (transposed convolution), as gathers.

    Input voxel s*q + r takes tap t from output q + (r + p - t*d)/s where that
    is integral. So each stride phase r is one stride-1 conv over grad_out, read
    in place from the phase's first index, with the phase's taps flipped, the
    weight group-transposed and dilation d/gcd(s, d); it fills gx[..., r::s].
    With several views, a phase is one conv over the views whose taps reach
    it, each with its own taps, dilation and first index.
    """
    g, cog, cig = spec.groups, spec.c_out // spec.groups, spec.c_in // spec.groups
    wv = weight.reshape(g, cog, len(spec.views), cig, *spec.kernel)
    # per view: per axis, per stride phase r that some tap reaches: (its
    # taps flipped, the first grad_out index it reads); the view's dilation
    # on grad_out; and its weight group-transposed
    views = []
    for v, (dil, pad) in enumerate(spec.views):
        axes = []
        for size, k, s, d, p in zip(input_shape[2:], spec.kernel, spec.stride, dil, pad):
            taps = [[t for t in range(k) if (r + p - t * d) % s == 0] for r in range(min(s, size))]
            axes.append({r: (ts[::-1], (r + p - ts[-1] * d) // s) for r, ts in enumerate(taps) if ts})
        wt = wv[:, :, v].swapaxes(1, 2).reshape(spec.c_in, cog, *spec.kernel)
        views.append((axes, tuple(d // gcd(s, d) for s, d in zip(spec.stride, dil)), wt))
    gx = np.zeros(input_shape, dtype=grad_out.dtype)  # phases without taps stay 0
    for r in product(*(range(min(s, size)) for s, size in zip(spec.stride, input_shape[2:]))):
        pviews, weights = [], []
        for axes, dilation, wt in views:
            if all(q in ax for q, ax in zip(r, axes)):
                taps, start = zip(*(ax[q] for q, ax in zip(r, axes)))
                pviews.append((tuple(map(len, taps)), dilation, start))
                weights.append(wt[(Ellipsis,) + np.ix_(*taps)].reshape(spec.c_in, -1))
        if not pviews:
            continue
        pspec = ConvSpec(spec.c_out, spec.c_in, pviews[0][0], dilation=pviews[0][1], groups=g)
        dst = gx[(Ellipsis,) + tuple(map(slice, r, (None,) * 3, spec.stride))]
        # a strided phase fills a scratch copy; stride 1 writes gx in place
        buf = dst if dst.flags.c_contiguous else np.empty(dst.shape, dst.dtype)
        dst[...] = _conv(grad_out, np.concatenate(weights, axis=1), pspec, buf, pviews)
    return gx


def conv3d_weight_grad(x, grad_out, spec, bn=None):
    """Gradient of conv3d w.r.t. its weight tensor: per view and kernel plane,
    the sum of the bands' contractions, from the first on, of columns of the
    input (:func:`_depth_slabs`, or the bands of :func:`_bands` themselves
    for a 1x1x1 stride-1 unpadded conv) with rows of grad_out. A narrowing
    conv contracts the other way round: input voxel v takes tap t from
    grad_out at v + p - t*d, so per band of the input (:func:`_bands`) the
    columns are the taps, read from p - d*(k-1) with the taps flipped, of
    the depth slice of grad_out that the band's voxels read, over the band's
    extent, and the rows are the band's. With ``bn`` the input is read as
    its BN+ReLU, as :func:`conv3d` reads it, with the same bits as a pass
    over the whole BN+ReLU."""
    x = check_volume5d(x)
    n, g, cig, cog = x.shape[0], spec.groups, spec.c_in // spec.groups, spec.c_out // spec.groups
    plane = x[0, 0, 0].size
    go = grad_out.reshape(n, g, cog, -1)
    views = _views(spec)
    narrow = _narrowing(spec, prod(x.shape[2:]) / go.shape[3])
    kd, kh, kw = spec.kernel
    # per group, row, view, column channel and kernel plane: the (kh, kw)
    # taps, each plane the sum of its runs' contractions in turn
    gw = np.zeros((g,) + ((cig, 1, cog) if narrow else (cog, len(views), cig)) + (kd, kh * kw),
                  dtype=np.result_type(x, grad_out))
    made = set()

    def add(v, a, rows, cols):
        part = np.matmul(rows, cols.swapaxes(2, 3)).sum(0).reshape(gw.shape[:2] + (-1, kh * kw))
        if (v, a) in made:
            gw[:, :, v, :, a] += part
        else:
            gw[:, :, v, :, a] = part
            made.add((v, a))

    if narrow:
        start = tuple(p - d * (k - 1) for k, d, p in zip(spec.kernel, spec.dilation, spec.padding))
        for p0, p1, xb in _bands(x, bn):
            # the planes of grad_out that the band's voxels read
            q0 = max(0, p0 + start[0])
            q1 = min(grad_out.shape[2], p1 + start[0] + (kd - 1) * spec.dilation[0])
            view = (spec.kernel, spec.dilation, (p0 + start[0] - q0,) + start[1:])
            rows = xb.reshape(n, g, cig, -1)
            for v, a, vox, cols in _depth_slabs(grad_out[:, :, q0:q1], [view], (1, 1, 1), g,
                                                (p1 - p0,) + x.shape[3:]):
                add(v, a, rows[..., vox], cols)
            cols = None  # the band's columns go before the next band's are made
    elif _pointwise(spec):
        for p0, p1, xb in _bands(x, bn):
            add(0, 0, go[..., p0 * plane:p1 * plane], xb.reshape(n, g, cig, -1))
    else:
        for v, a, vox, cols in _depth_slabs(x, views, spec.stride, g, grad_out.shape[2:], bn):
            add(v, a, go[..., vox], cols)
    if narrow:  # (g, c_in/g, c_out/g, *kernel) with the taps flipped
        gw = gw.reshape(g, cig, -1, *spec.kernel)[..., ::-1, ::-1, ::-1].swapaxes(1, 2)
    return gw.reshape(spec.weight_shape)


# Bytes of one channel block of a BN+ReLU pass (see channel_blocks): the
# backward's few block-sized arrays then stay within a core's 2 MiB L2
BLOCK_BYTES = 512 << 10


def channel_blocks(x):
    """Slices of ``x``'s channel axis, each as many full channels as fit
    BLOCK_BYTES (one at least)."""
    step = max(1, BLOCK_BYTES * x.shape[1] // x.nbytes)
    return [slice(c, c + step) for c in range(0, x.shape[1], step)]


def channel_sum(x):
    """Per-channel sum over the (n, d, h, w) axes in numpy's order for an entire
    array: each (d, h, w) volume pairwise, then the n volume sums in turn.
    (numpy would sum a one-channel block of a batch as one pairwise run.)"""
    p = x.sum(axis=(2, 3, 4))
    s = p[0]
    for row in p[1:]:
        s = s + row
    return s


def batch_norm_stats(x):
    """Biased per-channel mean/variance over the (n, d, h, w) axes.

    Per channel block: one mean pass, then the centred squares summed in one
    scratch block (``x.var`` would take the mean a second time). Bit-identical
    to ``x.mean`` and ``x.var``: the sums are :func:`channel_sum`'s, divided
    as numpy divides them, by an intp count into the sum's dtype."""
    shape = (1, -1, 1, 1, 1)
    count = np.intp(x.size // x.shape[1])
    mean = np.empty(x.shape[1], dtype=x.dtype)
    var = np.empty_like(mean)
    for c in channel_blocks(x):
        xb = x[:, c]
        np.divide(channel_sum(xb), count, out=mean[c], casting="unsafe")
        xm = xb - mean[c].reshape(shape)
        np.multiply(xm, xm, out=xm)
        np.divide(channel_sum(xm), count, out=var[c], casting="unsafe")
    return mean, var


def batch_norm_apply(x, mean, var, gamma, beta, eps, relu=False, out=None):
    """gamma * (x - mean) / sqrt(var + eps) + beta, as one per-channel scale
    and shift, followed by max(., 0) when ``relu``: per channel block, a
    product into the output (fresh, or ``out``), an in-place add and an
    in-place ReLU."""
    shape = (1, -1, 1, 1, 1)
    scale = gamma / np.sqrt(var + eps)
    shift = beta - mean * scale
    if out is None:
        out = np.empty(x.shape, dtype=np.result_type(x, scale))
    for c in channel_blocks(x):
        o = out[:, c]
        np.multiply(x[:, c], scale[c].reshape(shape), out=o)
        o += shift[c].reshape(shape)
        if relu:
            np.maximum(o, 0, out=o)
    return out


def batch_norm(x, bn, mode="train"):
    """Batch normalization over (n, d, h, w) per channel, with the statistics
    of ``bn.moments`` (``bn`` is a :class:`dmfnet.blocks.BatchNorm3d`)."""
    x = check_volume5d(x)
    mean, var = bn.moments(x, mode)
    return batch_norm_apply(x, mean, var, bn.gamma.data, bn.beta.data, bn.eps)


def relu(x):
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0)


def _interp_matrix(size, scale, dtype):
    """(size*scale, size) matrix of align-corners=false linear interpolation.

    Output index i samples the source at (i + 0.5)/scale - 0.5, clamped.
    """
    src = np.clip((np.arange(size * scale) + 0.5) / scale - 0.5, 0.0, size - 1)
    i0 = np.floor(src)
    frac = (src - i0)[:, None]
    cols = np.arange(size)
    return ((cols == i0[:, None]) * (1 - frac)
            + (cols == np.minimum(i0 + 1, size - 1)[:, None]) * frac).astype(dtype)


def _resample(x, mats, out=None):
    """Apply one (out, in) matrix per spatial axis (d, h, w), one channel at a
    time, into ``out`` if given. Each (n, c) volume is written through its own
    view, which is contiguous even when ``out`` is a channel slice of a larger
    buffer; reshaping all of such a slice would copy it."""
    md, mh, mw = mats
    if out is None:
        out = np.empty(x.shape[:2] + (md.shape[0], mh.shape[0], mw.shape[0]), dtype=x.dtype)
    for xi, oi in zip(x, out):
        for src, dst in zip(xi, oi):
            np.matmul(md, (mh @ (src @ mw.T)).reshape(src.shape[0], -1),
                      out=dst.reshape(md.shape[0], -1))
    return out


def trilinear_upsample(x, scale, out=None):
    """Integer-factor trilinear upsampling (align-corners=false, clamped
    borders), into ``out`` if given: an array of the result's shape and dtype
    whose (n, c) volumes are each C-contiguous, such as a channel slice of a
    concat buffer."""
    x = check_volume5d(x)
    scale = _triple(scale, "scale")
    if any(s < 1 for s in scale):
        raise ConfigError(f"scale must be >= 1 per axis, got {scale}")
    if out is not None:
        shape = x.shape[:2] + tuple(n * s for n, s in zip(x.shape[2:], scale))
        if out.shape != shape or out.dtype != x.dtype or not out[0, 0].flags.c_contiguous:
            raise ShapeError(f"out must take {x.dtype} {shape} in C-contiguous volumes, "
                             f"got {out.dtype} {out.shape}")
    return _resample(x, [_interp_matrix(n, s, x.dtype) for n, s in zip(x.shape[2:], scale)], out)


def trilinear_upsample_grad(grad_out, input_shape, scale):
    """Transpose of :func:`trilinear_upsample`: the same products with each matrix transposed."""
    scale = _triple(scale, "scale")
    return _resample(grad_out, [_interp_matrix(n, s, grad_out.dtype).T
                                for n, s in zip(input_shape[2:], scale)])


def concat_channels(a, b):
    """Concatenate along the channel axis; batch and spatial dims must match."""
    a = check_volume5d(a, "a")
    b = check_volume5d(b, "b")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat_channels needs matching (n, d, h, w): {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


def add(a, b):
    """Elementwise sum; the residual-shortcut primitive."""
    if a.shape != b.shape:
        raise ShapeError(f"add needs identical shapes: {a.shape} vs {b.shape}")
    return a + b


def softmax_channels(x):
    """Per-voxel softmax over the channel axis, stabilized by max subtraction."""
    x = check_volume5d(x)
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)
