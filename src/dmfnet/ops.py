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

A spec's ``views`` make one conv over several dilated views of its operand (a
DMF unit's branches). Every pass of such a conv contracts by depth plane
(:func:`_depth_slabs`): each input plane's (h, w) taps are copied once per
view and serve every kernel plane that reads the plane, one GEMM each, where
im2col would copy them once per kernel plane. It is never kn2row, which reads
one dilation in place. The next paragraph is about one-view convs.

Each conv pass contracts on its narrow side, chosen from the spec's shapes (see
_narrowing). By default one batched matmul per slab of output voxels contracts
(n, g, c_in/g * taps, voxels) columns with the weight or the output gradient
(_slabs). A 1x1x1 stride-1 unpadded conv copies nothing: its columns are its
operand, a band of depth planes at a time. Other convs are im2col: per slab,
the windows the kernel taps read fill one reused column buffer. A stride-1 conv
with at most half as many output as input channels, other than that 1x1x1 one,
runs as kn2row: per slab and kernel plane one GEMM Y = W @ x reads the input in
place, and the output accumulates the window of Y that each tap shifts into
place. Its weight gradient copies shifted output-gradient columns and reads the
input in place. No pass pads its operand: each tap's window is clipped at the
volume border, and what it would read outside counts as zero. Either buffer
holds at most SLAB_BYTES, so a pass's scratch is one slab. Given a BN affine
(``bn=``), a forward or weight-gradient pass reads relu(batch_norm(x)) a band
of depth planes at a time, made by :func:`batch_norm_apply` in one reused
buffer of at most SLAB_BYTES (or one slab's planes, if more), so its scratch is
one slab plus one band. The input gradient is a transposed conv done as
gathers: one stride-1 conv per stride phase, reading the output gradient in
place from the phase's own start, so a widening conv's phases run as kn2row.

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


# Bytes of scratch a conv pass holds at once: im2col columns, or the kn2row
# GEMM output Y (one output row at least); and a BN+ReLU operand's band.
SLAB_BYTES = 8 << 20


class _Band:
    """The operand of a conv pass, read by depth planes. Without ``bn`` it is
    x itself. With ``bn`` = (mean, var, gamma, beta, eps) it is
    ``batch_norm_apply(x, *bn, relu=True)``, made a band of full planes at a
    time into one reused buffer: as many planes as fit SLAB_BYTES, or as one
    read asks for if more. A read past the band remakes it from the read's
    first plane on, so an operand that fits is made once per pass."""

    def __init__(self, x, bn):
        self.x, self.bn = x, bn
        self.planes, self.lo, self.hi = x, 0, x.shape[2]
        self.cap = x.shape[2]
        if bn is not None:
            self.hi = 0
            self.cap = min(self.cap, max(1, SLAB_BYTES * x.shape[2] // x.nbytes))
            self.buf = np.empty(0, dtype=x.dtype)

    def __call__(self, p0, p1):
        """(planes, first): an (n, c, planes, h, w) C-contiguous array (or x)
        whose depth plane i is the operand's plane first + i, for a read of
        planes p0 .. p1-1."""
        if p0 < self.lo or p1 > self.hi:
            x = self.x
            self.lo, self.hi = p0, min(x.shape[2], p0 + max(self.cap, p1 - p0))
            shape = x.shape[:2] + (self.hi - p0,) + x.shape[3:]
            size = prod(shape)
            if self.buf.size < size:
                self.planes = self.buf = None  # the old band goes before a larger one is made
                self.buf = np.empty(size, dtype=x.dtype)
            self.planes = self.buf[:size].reshape(shape)
            batch_norm_apply(x[:, :, p0:self.hi], *self.bn, relu=True, out=self.planes)
        return self.planes, self.lo

    def fit(self, planes, spec):
        """At most ``planes`` output planes per slab of a ``spec`` conv, and no
        more than the band holds the input planes of (one at least)."""
        if self.cap == self.x.shape[2]:
            return planes
        return min(planes, max(1, (self.cap - spec.effective_kernel[0]) // spec.stride[0] + 1))

    def boxes(self, zboxes):
        """The band that holds the planes a slab's depth boxes read (the current
        one if they read none), and the boxes with their plane slices made
        relative to it. A plain operand's band is all of x from plane 0."""
        reads = [bd[2] for bd in zboxes if bd]
        if not reads:
            return self.planes, zboxes
        planes, z = self(min(r.start for r in reads), max(r.stop for r in reads))
        if z:
            zboxes = [bd and (bd[0], bd[1], slice(bd[2].start - z, bd[2].stop - z, bd[2].step))
                      for bd in zboxes]
        return planes, zboxes


def _slab_extent(line_bytes, out_planes, out_rows, halo=0):
    """(planes, rows) of output per slab. A slab is full planes or, if one
    plane does not fit, rows of one plane; it holds ``line_bytes`` of scratch
    per row it reads, which is its own rows plus ``halo`` per plane."""
    lines = max(1, SLAB_BYTES // line_bytes)
    if lines >= out_rows + halo:
        return min(out_planes, lines // (out_rows + halo)), out_rows
    return 1, max(1, lines - halo)


def _clip(o0, extent, stride, dilation, start, size, k):
    """Where tap k of outputs o0 .. o0+extent-1 reads inside an axis of
    ``size`` voxels, when output o's tap k reads input start + o*stride +
    k*dilation: (lo, hi) of the outputs that do, relative to o0, and the input
    slice they read; None if none does."""
    first = start + k * dilation
    lo = max(o0, -(first // stride))  # the first o with first + o*stride >= 0
    hi = min(o0 + extent, (size - 1 - first) // stride + 1)
    if lo >= hi:
        return None
    return lo - o0, hi - o0, slice(first + lo * stride, first + (hi - 1) * stride + 1, stride)


def _views(spec):
    """(kernel, dilation, start) of each view of ``spec``: output voxel o's
    tap t of a view reads start + o*stride + t*dilation per axis."""
    return [(spec.kernel, d, tuple(-q for q in p)) for d, p in spec.views]


def _boxes(spec, start, in_spatial, out_spatial, steps):
    """Per axis d and h, per slab origin (slabs of ``steps`` outputs), per tap
    index along the axis: the tap's :func:`_clip`; for w, which every slab
    spans in full, the per-tap list alone."""
    d, h, w = ({o0: [_clip(o0, min(step, o - o0), s, dil, st, size, t) for t in range(k)]
                for o0 in range(0, o, step)}
               for o, step, k, s, dil, st, size in zip(out_spatial, steps, spec.kernel, spec.stride,
                                                       spec.dilation, start, in_spatial))
    return d, h, w[0]


def _slabs(x, spec, out_spatial, start, bn=None):
    """Columns of ``x`` (with ``bn``, of its BN+ReLU) in slabs of output voxels.

    Output voxel o's tap t reads x at start + o*stride + t*dilation per axis;
    reads outside the volume count as zero. A slab is full output depth
    planes or, if one plane does not fit, rows of one plane, so its voxels are
    contiguous in the flattened output. Yields per slab its flattened voxel
    slice and its columns, (n, g, c_in/g * taps, voxels), whose rows follow a
    weight reshaped to (g, c_out/g, -1).

    A 1x1x1 stride-1 unpadded conv read from offset 0 over its own extent
    copies nothing: its slabs are the bands of :class:`_Band`, each its own
    columns. Any other conv is im2col into one reused buffer of at most
    SLAB_BYTES. A tap copies only the box of its window that lies inside the
    volume. The buffer starts zeroed and every slab keeps a tap's columns at
    the same offsets, so a tap re-zeroes the d and h strips outside its box
    only when the box or the slab's shape differs from its last slab's. The w
    strips stay zero: every slab spans the full output width.
    """
    n, g, cig = x.shape[0], spec.groups, spec.c_in // spec.groups
    band = _Band(x, bn)
    if _pointwise(spec) and not any(start) and out_spatial == x.shape[2:]:
        plane = x[0, 0, 0].size
        for z in range(0, x.shape[2], band.cap):
            planes = band(z, min(x.shape[2], z + band.cap))[0]
            yield slice(z * plane, (z + planes.shape[2]) * plane), planes.reshape(n, g, cig, -1)
        return
    do, ho, wo = out_spatial
    taps = list(product(*map(range, spec.kernel)))
    line_elems = n * spec.c_in * len(taps) * wo
    dz, dy = _slab_extent(line_elems * x.itemsize, do, ho)
    dz = band.fit(dz, spec)
    buf = np.zeros((n, g, cig * len(taps), dz * dy * wo), dtype=x.dtype)
    bz, by, bx = _boxes(spec, start, x.shape[2:], out_spatial, (dz, dy, wo))
    last = [None] * len(taps)  # per tap: (box, ez, ey) of its last slab; None while all zero
    for z0, zboxes in bz.items():
        planes, zboxes = band.boxes(zboxes)
        xg = planes.reshape(n, g, cig, *planes.shape[2:])
        for y0, yboxes in by.items():
            ez, ey = min(dz, do - z0), min(dy, ho - y0)
            cols = buf[..., :ez * ey * wo]
            view = cols.reshape(n, g, cig, len(taps), ez, ey, wo)
            for t, (a, b, c) in enumerate(taps):
                bd, bh, bw = zboxes[a], yboxes[b], bx[c]
                box = (bd[:2], bh[:2]) if bd and bh and bw else None
                if box is None and last[t] is None:
                    continue  # its columns are still all zero
                if last[t] not in (None, (box, ez, ey)):
                    if box is None:
                        view[:, :, :, t] = 0
                    else:
                        (d0, d1), (h0, h1) = box
                        for strip in ((slice(0, d0),), (slice(d1, ez),),
                                      (slice(d0, d1), slice(0, h0)), (slice(d0, d1), slice(h1, ey))):
                            if strip[-1].start < strip[-1].stop:
                                view[(slice(None),) * 3 + (t,) + strip] = 0
                last[t] = box, ez, ey
                if box:
                    view[:, :, :, t, bd[0]:bd[1], bh[0]:bh[1], bw[0]:bw[1]] = xg[..., bd[2], bh[2], bw[2]]
            first = (z0 * ho + y0) * wo
            yield slice(first, first + ez * ey * wo), cols


def _depth_slabs(x, views, stride, groups, out_spatial, bn=None):
    """Columns of a conv over several views of ``x`` (with ``bn``, its
    BN+ReLU) by depth plane, each input plane's (h, w) taps made once.

    ``views`` lists (kernel, dilation, start) per view: output voxel o's tap
    t of a view reads x at start + o*stride + t*dilation per axis; reads
    outside the volume count as zero. Output plane z's kernel plane a reads
    input plane z*stride + start + a*dilation (depth). So per band of input
    planes and per view, the columns of the view's kh*kw taps of every plane
    of the band, (n, g, c_in/g * kh * kw, planes * voxels per output plane),
    serve each kernel plane a run of output planes: the band keeps its planes
    grouped by their residue modulo the stride, so each run reads consecutive
    planes. Yields (v, a, vox, cols): view v, kernel plane a, the flattened
    output voxels and their columns, a slice of the band's, whose rows follow
    view v's kernel plane a of a weight reshaped to (g, c_out/g, c_in/g, kd,
    kh * kw). A pass's contractions over these sum to the conv, each input
    plane's taps copied kh*kw times, not once per kernel plane that reads it.

    Each view fills its own buffer, of SLAB_BYTES / views at most (one plane
    at least), which starts zeroed: a tap's box is the same in every plane,
    so what lies outside it stays zero."""
    n, g, cig = x.shape[0], groups, x.shape[1] // groups
    do, ho, wo = out_spatial
    s, plane = stride[0], ho * wo
    band = _Band(x, bn)
    hw = max(k[1] * k[2] for k, _, _ in views)
    planes = min(band.cap, max(1, SLAB_BYTES // (len(views) * n * x.shape[1] * hw * plane
                                                  * x.itemsize)))
    bufs = [np.zeros((n, g, cig, k[1], k[2], planes, ho, wo), dtype=x.dtype) for k, _, _ in views]
    boxes = [[[_clip(0, o, stride[ax], dil[ax], st[ax], size, t) for t in range(k[ax])]
              for ax, o, size in ((1, ho, x.shape[3]), (2, wo, x.shape[4]))]
             for k, dil, st in views]
    for p0 in range(0, x.shape[2], planes):
        p1 = min(x.shape[2], p0 + planes)
        xb, z = band(p0, p1)
        xg = xb.reshape(n, g, cig, *xb.shape[2:])[:, :, :, p0 - z:p1 - z]
        # band plane p0 + r + s*j sits at slot offset[r] + j
        offset = list(accumulate((len(range(r, p1 - p0, s)) for r in range(s)), initial=0))
        for v, ((k, dil, st), buf, (bh, bw)) in enumerate(zip(views, bufs, boxes)):
            for (b, hb), (c, wb), r in product(enumerate(bh), enumerate(bw), range(s)):
                if hb and wb:
                    buf[:, :, :, b, c, offset[r]:offset[r + 1], hb[0]:hb[1], wb[0]:wb[1]] = \
                        xg[:, :, :, r::s, hb[2], wb[2]]
            cols = buf.reshape(n, g, -1, planes * plane)
            for a in range(k[0]):
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
    read from offset 0, neither side copies anything (see _slabs). Nor is a
    conv over several views: kn2row reads one dilation in place."""
    return (spec.stride == (1, 1, 1) and len(spec.views) == 1 and not _pointwise(spec)
            and 2 * spec.c_out * span <= spec.c_in)


def _kn2row(x, weight, spec, out, start, bn=None):
    """Stride-1 conv as kn2row: per slab and kernel plane a, one GEMM
    Y = W[a] @ x over the input rows the slab reads, with no column copy, then
    out += the part of each of the plane's kh*kw windows of Y, shifted into
    place by its tap, that lies inside the volume. With ``bn`` x is read as
    its BN+ReLU (:class:`_Band`).

    Y holds c_out/g * kh * kw rows per input voxel and at most SLAB_BYTES.
    """
    n, g, cig, cog = x.shape[0], spec.groups, spec.c_in // spec.groups, spec.c_out // spec.groups
    kd, kh, kw = spec.kernel
    hi, wi = x.shape[3:]
    do, ho, wo = out.shape[2:]
    # (kd, g, kh*kw*c_out/g, c_in/g): the taps of one kernel plane stacked as rows
    wk = weight.reshape(g, cog, cig, kd, kh * kw).transpose(3, 0, 4, 1, 2)
    wk = wk.reshape(kd, g, -1, cig)
    dst = out.reshape(n, g, cog, do, ho, wo)
    dst[...] = 0
    halo = spec.dilation[1] * (kh - 1)
    # a slab of full planes reads all hi rows of each, which a phase start can
    # make more than ho + halo
    extra = max(halo, hi - ho)
    row_elems = n * spec.c_out * kh * kw * wi
    band = _Band(x, bn)
    dz, dy = _slab_extent(row_elems * x.itemsize, do, ho, extra)
    dz = band.fit(dz, spec)
    buf = np.empty(row_elems * dz * (dy + extra), dtype=x.dtype)
    bz, by, bx = _boxes(spec, start, x.shape[2:], out.shape[2:], (dz, dy, wo))
    for z0, zboxes in bz.items():
        planes, zboxes = band.boxes(zboxes)
        xf = planes.reshape(n, g, cig, -1)
        for y0, yboxes in by.items():
            ey = min(dy, ho - y0)
            # input rows read: all of each plane, or the slab's rows and their halo
            r0, r1 = (0, hi) if dy == ho else (max(0, start[1] + y0), min(hi, start[1] + y0 + ey + halo))
            if r0 >= r1:
                continue  # every row the slab's taps read lies outside the volume
            for a, bd in enumerate(zboxes):
                if bd is None:
                    continue
                z, z1, planes = bd
                y = buf[: row_elems * (z1 - z) * (r1 - r0)].reshape(n, g, -1, (z1 - z) * (r1 - r0) * wi)
                first = (planes.start * hi + r0) * wi
                np.matmul(wk[a], xf[..., first:first + y.shape[-1]], out=y)
                taps = y.reshape(n, g, kh, kw, cog, z1 - z, r1 - r0, wi)
                acc = dst[:, :, :, z0 + z:z0 + z1]
                for (b, bh), (c, bw) in product(enumerate(yboxes), enumerate(bx)):
                    if bh and bw:
                        acc[..., y0 + bh[0]:y0 + bh[1], bw[0]:bw[1]] += \
                            taps[:, :, b, c, ..., bh[2].start - r0:bh[2].stop - r0, bw[2]]
    return out


def _conv(x, weight, spec, out=None, views=None, bn=None):
    """conv3d without argument checks or bias, into ``out`` (C-contiguous) if
    given. Output voxel o's tap t of a view reads x (or, with ``bn``, its
    BN+ReLU: see :class:`_Band`) at start + o*stride + t*dilation per axis,
    for each (kernel, dilation, start) of ``views`` (the spec's own by
    default, :func:`_views`); reads outside x count as zero. The weight holds
    per output channel one block per view, (c_in/g, kd, kh, kw) each, in view
    order; several views contract by depth plane (:func:`_depth_slabs`)."""
    n, g = x.shape[0], spec.groups
    views = views or _views(spec)
    if out is None:
        out = np.empty((n, spec.c_out) + spec.out_spatial(x.shape[2:]), dtype=x.dtype)
    wk = weight.reshape(g, spec.c_out // g, -1)
    flat = out.reshape(n, g, spec.c_out // g, -1)
    # one column row per group makes an outer product, which BLAS does 5x slower
    contract = np.multiply if wk.shape[2] == 1 else np.matmul
    if len(views) > 1:
        blocks = _depth_weights(wk, views, x.shape[1] // g)
        flat[...] = 0
        part = None
        for v, a, vox, cols in _depth_slabs(x, views, spec.stride, g, out.shape[2:], bn):
            if part is None or part.shape[3] < cols.shape[3]:
                part = np.empty(flat.shape[:3] + cols.shape[3:], dtype=x.dtype)
            y = part[..., :cols.shape[3]]
            np.matmul(blocks[v][a], cols, out=y)
            flat[..., vox] += y
    elif _narrowing(spec):
        _kn2row(x, weight, spec, out, views[0][2], bn)
    else:
        for vox, cols in _slabs(x, spec, out.shape[2:], views[0][2], bn):
            contract(wk, cols, out=flat[..., vox])
    return out


def conv3d(x, weight, spec, bn=None):
    """Grouped, strided, dilated 3D cross-correlation, without bias.

    x: (n, c_in, d, h, w); weight: (c_out, c_in/g, kd, kh, kw), or with
    several views (c_out, views * c_in/g, kd, kh, kw): the sum over the views
    of the conv of x at the view's dilation and padding with its block of
    input channels. Output channel group i reads only input channel group i.
    With ``bn`` =
    (mean, var, gamma, beta, eps) the conv reads
    ``batch_norm_apply(x, *bn, relu=True)`` instead of x, a band of depth
    planes at a time, never all at once; the output has the very bits of the
    conv of that entire array.
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
    """Gradient of conv3d w.r.t. its weight tensor: the sum of the slabs'
    contractions (see _slabs), from the first on, of columns of the input
    with rows of grad_out or, for a narrowing conv, the other way round; for
    a conv over several views, per view and kernel plane, the sum of the
    bands' contractions (see _depth_slabs). With ``bn`` the input is read as
    its BN+ReLU, as :func:`conv3d` reads it."""
    x = check_volume5d(x)
    n, g, cig = x.shape[0], spec.groups, spec.c_in // spec.groups
    plane = x[0, 0, 0].size
    go = grad_out.reshape(n, g, spec.c_out // g, -1)
    views = _views(spec)
    if len(views) > 1:
        # per view and kernel plane, (g, c_out/g, c_in/g * kh * kw) summed
        # over the bands, then laid out as the weight's (c_in/g, kd, kh, kw)
        gws = [[np.zeros((g, spec.c_out // g, cig * k[1] * k[2]), dtype=x.dtype)
                for _ in range(k[0])] for k, _, _ in views]
        for v, a, vox, cols in _depth_slabs(x, views, spec.stride, g, grad_out.shape[2:], bn):
            gws[v][a] += np.matmul(go[..., vox], cols.swapaxes(2, 3)).sum(0)
        blocks = [np.stack([p.reshape(g, -1, cig, k[1] * k[2]) for p in planes], axis=3)
                  for (k, _, _), planes in zip(views, gws)]
        return np.concatenate([b.reshape(g, spec.c_out // g, -1) for b in blocks],
                              axis=2).reshape(spec.weight_shape)
    narrow = _narrowing(spec, prod(x.shape[2:]) / go.shape[3])
    if narrow:
        # input voxel v takes tap t from grad_out at v + p - t*d, so the
        # columns are im2col of grad_out over the input's extent, read from
        # p - d*(k-1), with the taps flipped, and the rows are the input's
        cspec = ConvSpec(spec.c_out, spec.c_in, spec.kernel, dilation=spec.dilation, groups=g)
        start = tuple(p - d * (k - 1) for k, d, p in zip(spec.kernel, spec.dilation, spec.padding))
        slabs = _slabs(grad_out, cspec, x.shape[2:], start)
        band = _Band(x, bn)
    else:
        slabs = _slabs(x, spec, grad_out.shape[2:], tuple(-p for p in spec.padding), bn)
    gw = None
    for vox, cols in slabs:
        if narrow:
            # the band of the input planes the slab's voxels lie in
            planes, z = band(vox.start // plane, -(-vox.stop // plane))
            rows = planes.reshape(n, g, cig, -1)[..., vox.start - z * plane:vox.stop - z * plane]
        else:
            rows = go[..., vox]
        part = np.matmul(rows, cols.swapaxes(2, 3)).sum(0)
        gw = part if gw is None else np.add(gw, part, out=gw)
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
