"""Dense rank-5 volume kernels: 3D convolution (grouped/strided/dilated),
batch norm, ReLU, trilinear upsampling, channel concat, residual add and
per-voxel softmax.

Volumes are C-contiguous numpy arrays of shape (n, c, d, h, w), float32 by
default. Every kernel is a pure function of its inputs (except that train-mode
batch norm updates the running statistics of its BatchNorm3d in place, see
:func:`batch_norm_moments`), deterministic, and safe to call concurrently on
distinct arrays. :func:`batch_norm` and :func:`relu` are untraced references;
the network runs BN+ReLU as one op, :func:`dmfnet.autograd.t_batch_norm`.

Each conv pass contracts on its narrow side, chosen from the spec's shapes
(see _narrowing). By default it is an im2col GEMM over slabs of output voxels:
per slab, the strided windows the kernel taps read from the padded input fill
one (n, g, c_in/g * taps, voxels) column buffer, which one batched matmul
contracts with the weight or the output gradient. A stride-1 conv with at most
half as many output as input channels runs as kn2row instead: per slab and
kernel plane one GEMM Y = W @ x reads the padded input in place, and the
output accumulates the window of Y that each tap shifts into place. Its weight
gradient copies shifted output-gradient columns and reads the padded input in
place. Either buffer holds at most SLAB_BYTES, so a pass's scratch is its
padded input (or input gradient) plus one slab. A 1x1x1 stride-1 unpadded conv
copies nothing: its operand is its columns. The input gradient is a transposed
conv done as gathers: one stride-1 conv per stride phase over the
zero-bordered output gradient, so a widening conv's phases run as kn2row.

Trilinear upsampling multiplies each axis by an interpolation matrix M; its
gradient multiplies by M^T, so it is the exact adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd

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
    """Declarative description of one 3D convolution."""

    c_in: int
    c_out: int
    kernel: tuple = (3, 3, 3)
    stride: tuple = (1, 1, 1)
    dilation: tuple = (1, 1, 1)
    groups: int = 1
    padding: tuple = (0, 0, 0)

    def __post_init__(self):
        object.__setattr__(self, "kernel", _triple(self.kernel, "kernel"))
        object.__setattr__(self, "stride", _triple(self.stride, "stride"))
        object.__setattr__(self, "dilation", _triple(self.dilation, "dilation"))
        object.__setattr__(self, "padding", _triple(self.padding, "padding"))
        if self.c_in <= 0 or self.c_out <= 0:
            raise ConfigError(f"channel counts must be positive, got {self.c_in}->{self.c_out}")
        if self.groups <= 0:
            raise ConfigError(f"groups must be positive, got {self.groups}")
        if self.c_in % self.groups or self.c_out % self.groups:
            raise ConfigError(
                f"groups={self.groups} must divide c_in={self.c_in} and c_out={self.c_out}"
            )
        if any(s < 1 for s in self.stride) or any(d < 1 for d in self.dilation):
            raise ConfigError("stride and dilation must be >= 1 per axis")

    @property
    def weight_shape(self):
        return (self.c_out, self.c_in // self.groups) + self.kernel

    @property
    def effective_kernel(self):
        """Kernel extent per axis once dilation is applied: d*(k-1)+1."""
        return tuple(d * (k - 1) + 1 for k, d in zip(self.kernel, self.dilation))

    def out_spatial(self, spatial):
        out = []
        for ax, (size, ext, s, p) in enumerate(
            zip(spatial, self.effective_kernel, self.stride, self.padding)
        ):
            o = (size + 2 * p - ext) // s + 1
            if o < 1:
                raise ShapeError(
                    f"conv3d output collapses on axis {AXES[ax]}: input {size}, "
                    f"effective kernel {ext}, stride {s}, padding {p}"
                )
            out.append(o)
        return tuple(out)

    @property
    def weight_count(self):
        """Learnable scalars: k_d*k_h*k_w*c_in*c_out/g."""
        return self.c_out * (self.c_in // self.groups) * int(np.prod(self.kernel))


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
# GEMM output Y (one output row at least).
SLAB_BYTES = 8 << 20


def _slab_extent(line_bytes, out_planes, out_rows, halo=0):
    """(planes, rows) of output per slab. A slab is whole planes or, if one
    plane does not fit, rows of one plane; it holds ``line_bytes`` of scratch
    per row it reads, which is its own rows plus ``halo`` per plane."""
    lines = max(1, SLAB_BYTES // line_bytes)
    if lines >= out_rows + halo:
        return min(out_planes, lines // (out_rows + halo)), out_rows
    return 1, max(1, lines - halo)


def _padded_groups(x, spec):
    """Zero-padded input viewed as (n, g, c_in/g, d, h, w); no copy without padding."""
    pads = ((0, 0), (0, 0)) + tuple((p, p) for p in spec.padding)
    xp = np.pad(x, pads) if any(spec.padding) else x
    return xp.reshape(x.shape[0], spec.groups, spec.c_in // spec.groups, *xp.shape[2:])


def _slabs(spec, n, out_spatial, dtype):
    """Split a conv pass into slabs of output voxels whose columns fit SLAB_BYTES.

    A slab is whole output depth planes or, if one plane does not fit, rows of
    one plane, so its voxels are contiguous in the flattened output. Yields per
    slab its flattened voxel slice; per tap, in (kd, kh, kw) order, the index
    of the padded-input window the tap reads; and a reused, uninitialised
    buffer of shape (n, g, c_in/g, taps, *slab extent), whose flattened rows
    follow a weight reshaped to (g, c_out/g, -1).
    """
    do, ho, wo = out_spatial
    taps = int(np.prod(spec.kernel))
    line_elems = n * spec.c_in * taps * wo
    dz, dy = _slab_extent(line_elems * dtype.itemsize, do, ho)
    buf = np.empty(line_elems * dz * dy, dtype=dtype)
    for z0 in range(0, do, dz):
        for y0 in range(0, ho, dy):
            extent = (min(dz, do - z0), min(dy, ho - y0), wo)
            first, size = (z0 * ho + y0) * wo, extent[0] * extent[1] * wo
            cols = buf[: line_elems * size // wo].reshape(
                n, spec.groups, spec.c_in // spec.groups, taps, *extent)
            windows = [(Ellipsis,) + tuple(
                slice(o * s + t * d, o * s + t * d + s * (e - 1) + 1, s)
                for o, e, s, d, t in zip((z0, y0, 0), extent, spec.stride, spec.dilation, tap))
                for tap in product(*map(range, spec.kernel))]
            yield slice(first, first + size), windows, cols


def _pointwise(spec):
    """A 1x1x1 stride-1 unpadded conv, whose columns are its operand itself."""
    return spec.kernel == (1, 1, 1) and spec.stride == (1, 1, 1) and not any(spec.padding)


def _narrowing(spec, span=1):
    """Whether a stride-1 conv pass contracts on its output side: when that
    side copies at most half of what the input side would. Per voxel they copy
    c_out/g and c_in/g rows; the output side's copies cover ``span`` times
    as many voxels."""
    return spec.stride == (1, 1, 1) and 2 * spec.c_out * span <= spec.c_in


def _kn2row(xg, weight, spec, out):
    """Stride-1 conv as kn2row: per slab and kernel plane a, one GEMM
    Y = W[a] @ x over the input rows the slab reads, with no column copy, then
    out += the kh*kw windows of Y that the plane's taps shift into place.

    Y holds c_out/g * kh * kw rows per input voxel and at most SLAB_BYTES.
    """
    n, g, cig = xg.shape[:3]
    cog = spec.c_out // g
    kd, kh, kw = spec.kernel
    dd, dh, dw = spec.dilation
    hp, wp = xg.shape[4:]
    do, ho, wo = out.shape[2:]
    xf = xg.reshape(n, g, cig, -1)
    # (kd, g, kh*kw*c_out/g, c_in/g): the taps of one kernel plane stacked as rows
    wk = weight.reshape(g, cog, cig, kd, kh * kw).transpose(3, 0, 4, 1, 2)
    wk = wk.reshape(kd, g, -1, cig)
    dst = out.reshape(n, g, cog, do, ho, wo)
    row_elems = n * spec.c_out * kh * kw * wp
    dz, dy = _slab_extent(row_elems * xg.itemsize, do, ho, dh * (kh - 1))
    buf = np.empty(row_elems * dz * (dy + dh * (kh - 1)), dtype=xg.dtype)
    for z0 in range(0, do, dz):
        for y0 in range(0, ho, dy):
            ez, ey = min(dz, do - z0), min(dy, ho - y0)
            ry = ey + dh * (kh - 1)  # input rows read; hp for whole planes
            y = buf[: row_elems * ez * ry].reshape(n, g, -1, ez * ry * wp)
            taps = y.reshape(n, g, kh, kw, cog, ez, ry, wp)
            acc = dst[:, :, :, z0:z0 + ez, y0:y0 + ey]
            for a in range(kd):
                start = ((z0 + a * dd) * hp + y0) * wp
                np.matmul(wk[a], xf[..., start:start + y.shape[-1]], out=y)
                for b, c in product(range(kh), range(kw)):
                    win = taps[:, :, b, c, :, :, b * dh:b * dh + ey, c * dw:c * dw + wo]
                    if a or b or c:
                        acc += win
                    else:
                        acc[...] = win
    return out


def _conv(x, weight, spec, out=None):
    """conv3d without argument checks or bias, into ``out`` (C-contiguous) if given."""
    n, g = x.shape[0], spec.groups
    out_spatial = spec.out_spatial(x.shape[2:])
    if out is None:
        out = np.empty((n, spec.c_out) + out_spatial, dtype=x.dtype)
    xg = _padded_groups(x, spec)
    wk = weight.reshape(g, spec.c_out // g, -1)
    flat = out.reshape(n, g, spec.c_out // g, -1)
    # one column row per group makes an outer product, which BLAS does 5x slower
    contract = np.multiply if wk.shape[2] == 1 else np.matmul
    if _pointwise(spec):
        contract(wk, xg.reshape(n, g, wk.shape[2], -1), out=flat)
    elif _narrowing(spec):
        _kn2row(np.ascontiguousarray(xg), weight, spec, out)
    else:
        for vox, windows, cols in _slabs(spec, n, out_spatial, x.dtype):
            for t, win in enumerate(windows):
                cols[:, :, :, t] = xg[win]
            contract(wk, cols.reshape(n, g, wk.shape[2], -1), out=flat[..., vox])
    return out


def conv3d(x, weight, spec):
    """Grouped, strided, dilated 3D cross-correlation, without bias.

    x: (n, c_in, d, h, w); weight: (c_out, c_in/g, kd, kh, kw).
    Output channel group i reads only input channel group i.
    """
    return _conv(_check_conv_args(x, weight, spec), weight, spec)


def conv3d_input_grad(grad_out, weight, spec, input_shape):
    """Gradient of conv3d w.r.t. its input (transposed convolution), as gathers.

    Input voxel s*q + r takes tap t from output q + (r + p - t*d)/s where that
    is whole. So each stride phase r is one stride-1 conv over a window of the
    zero-bordered grad_out, with the phase's taps flipped, the weight
    group-transposed and dilation d/gcd(s, d); it fills gx[..., r::s].
    """
    g = spec.groups
    # per axis, per stride phase r that some tap reaches: (r, its taps flipped,
    # the first grad_out index it reads, its window length)
    phases = []
    for size, k, s, d, p in zip(input_shape[2:], spec.kernel, spec.stride, spec.dilation,
                                spec.padding):
        taps = [[t for t in range(k) if (r + p - t * d) % s == 0] for r in range(min(s, size))]
        phases.append([(r, ts[::-1], (r + p - ts[-1] * d) // s,
                        len(range(r, size, s)) + (len(ts) - 1) * d // gcd(s, d))
                       for r, ts in enumerate(taps) if ts])
    border = [(max(0, -min(a for _, _, a, _ in ph)), max(0, max(a + m for _, _, a, m in ph) - o))
              for ph, o in zip(phases, grad_out.shape[2:])]
    gp = np.pad(grad_out, ((0, 0), (0, 0), *border)) if any(map(any, border)) else grad_out
    wt = weight.reshape(g, spec.c_out // g, spec.c_in // g, *spec.kernel).swapaxes(1, 2)
    wt = wt.reshape(spec.c_in, spec.c_out // g, *spec.kernel)
    dilation = tuple(d // gcd(s, d) for s, d in zip(spec.stride, spec.dilation))
    gx = np.zeros(input_shape, dtype=grad_out.dtype)  # phases without taps stay 0
    for phase in product(*phases):
        taps = [ts for _, ts, _, _ in phase]
        pspec = ConvSpec(spec.c_out, spec.c_in, tuple(map(len, taps)), dilation=dilation, groups=g)
        window = tuple(slice(a + lo, a + lo + m) for (_, _, a, m), (lo, _) in zip(phase, border))
        dst = gx[(Ellipsis,) + tuple(slice(r, None, s) for (r, *_), s in zip(phase, spec.stride))]
        # a strided phase fills a scratch copy; stride 1 writes gx in place
        buf = dst if dst.flags.c_contiguous else np.empty(dst.shape, dst.dtype)
        dst[...] = _conv(gp[(Ellipsis,) + window], wt[(Ellipsis,) + np.ix_(*taps)], pspec, buf)
    return gx


def conv3d_weight_grad(x, grad_out, spec):
    """Gradient of conv3d w.r.t. its weight tensor, with the columns copied
    from the input or, for a narrowing conv, from grad_out."""
    x = check_volume5d(x)
    n, g, cig = x.shape[0], spec.groups, spec.c_in // spec.groups
    xg = _padded_groups(x, spec)
    go = grad_out.reshape(n, g, spec.c_out // g, -1)
    if _pointwise(spec):
        return np.matmul(go, xg.reshape(n, g, cig, -1).swapaxes(2, 3)).sum(0).reshape(spec.weight_shape)
    narrow = _narrowing(spec, np.prod(xg.shape[3:]) / np.prod(grad_out.shape[2:]))
    if narrow:
        # padded input voxel v takes tap t from grad_out at v - t*d, so the
        # columns are im2col of grad_out zero-bordered by d*(k-1), over the
        # padded input's extent, with the taps flipped
        cspec = ConvSpec(spec.c_out, spec.c_in, spec.kernel, dilation=spec.dilation, groups=g,
                         padding=tuple(d * (k - 1) for k, d in zip(spec.kernel, spec.dilation)))
        src, rows, extent = _padded_groups(grad_out, cspec), xg.reshape(n, g, cig, -1), xg.shape[3:]
    else:
        cspec, src, rows, extent = spec, xg, go, grad_out.shape[2:]
    gw = 0
    for vox, windows, cols in _slabs(cspec, n, extent, x.dtype):
        for t, win in enumerate(windows):
            cols[:, :, :, t] = src[win]
        gw += np.matmul(rows[..., vox], cols.reshape(n, g, -1, vox.stop - vox.start).swapaxes(2, 3)).sum(0)
    if narrow:  # (g, c_in/g, c_out/g, *kernel) with the taps flipped
        gw = gw.reshape(g, cig, -1, *spec.kernel)[..., ::-1, ::-1, ::-1].swapaxes(1, 2)
    return gw.reshape(spec.weight_shape)


def batch_norm_stats(x):
    """Biased per-channel mean/variance over the (n, d, h, w) axes."""
    axes = (0, 2, 3, 4)
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    return mean, var


def batch_norm_apply(x, mean, var, gamma, beta, eps):
    """gamma * (x - mean) / sqrt(var + eps) + beta, as one per-channel scale
    and shift: one full-volume product, then an in-place add."""
    shape = (1, -1, 1, 1, 1)
    scale = gamma / np.sqrt(var + eps)
    out = x * scale.reshape(shape)
    out += (beta - mean * scale).reshape(shape)
    return out


def batch_norm_moments(x, bn, mode):
    """The per-channel (mean, var) that batch norm normalizes ``x`` with.

    ``bn`` is a :class:`dmfnet.blocks.BatchNorm3d`. Train mode returns the
    batch statistics and updates ``bn.running_mean/var`` in place; eval mode
    returns copies of the running stats.
    """
    if x.shape[1] != bn.running_mean.shape[0]:
        raise ShapeError(
            f"input has {x.shape[1]} channels, batch norm expects {bn.running_mean.shape[0]}"
        )
    if mode == "train":
        mean, var = batch_norm_stats(x)
        m = bn.momentum
        bn.running_mean[:] = (1 - m) * bn.running_mean + m * mean
        bn.running_var[:] = (1 - m) * bn.running_var + m * var
        return mean, var
    if mode == "eval":
        return bn.running_mean.copy(), bn.running_var.copy()
    raise ConfigError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")


def batch_norm(x, bn, mode="train"):
    """Batch normalization over (n, d, h, w) per channel, with the statistics
    of :func:`batch_norm_moments`."""
    x = check_volume5d(x)
    mean, var = batch_norm_moments(x, bn, mode)
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


def _resample(x, mats):
    """Apply one (out, in) matrix per spatial axis (d, h, w), one channel at a time."""
    md, mh, mw = mats
    out = np.empty(x.shape[:2] + (md.shape[0], mh.shape[0], mw.shape[0]), dtype=x.dtype)
    for src, dst in zip(x.reshape(-1, *x.shape[2:]), out.reshape(-1, *out.shape[2:])):
        np.matmul(md, (mh @ (src @ mw.T)).reshape(src.shape[0], -1),
                  out=dst.reshape(md.shape[0], -1))
    return out


def trilinear_upsample(x, scale):
    """Integer-factor trilinear upsampling (align-corners=false, clamped borders)."""
    x = check_volume5d(x)
    scale = _triple(scale, "scale")
    if any(s < 1 for s in scale):
        raise ConfigError(f"scale must be >= 1 per axis, got {scale}")
    return _resample(x, [_interp_matrix(n, s, x.dtype) for n, s in zip(x.shape[2:], scale)])


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
