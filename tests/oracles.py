"""Independent reference implementations used to derive expected values.

These deliberately avoid the vectorized code paths of the package: the conv
reference and its gradients are literal nested-loop translations of the
definition, the trilinear reference evaluates the full eight-corner formula
per voxel, the batch-norm references are the closed-form and the chain-rule
backward with one temporary per term, and the Adam reference runs the
textbook scalar recurrences.
"""

import numpy as np


def conv3d_reference(x, w, stride=(1, 1, 1), dilation=(1, 1, 1), padding=(0, 0, 0),
                     groups=1, bias=None):
    """Direct convolution by explicit loops over every output element."""
    n, ci, D, H, W = x.shape
    co = w.shape[0]
    kd, kh, kw = w.shape[2:]
    sd, sh, sw = stride
    dd, dh, dw = dilation
    pd, ph, pw = padding
    cig = ci // groups
    cog = co // groups
    do = (D + 2 * pd - (dd * (kd - 1) + 1)) // sd + 1
    ho = (H + 2 * ph - (dh * (kh - 1) + 1)) // sh + 1
    wo = (W + 2 * pw - (dw * (kw - 1) + 1)) // sw + 1
    out = np.zeros((n, co, do, ho, wo), dtype=x.dtype)
    for b in range(n):
        for oc in range(co):
            g = oc // cog
            for zo in range(do):
                for yo in range(ho):
                    for xo in range(wo):
                        acc = 0.0
                        for ic in range(cig):
                            for a in range(kd):
                                z = zo * sd + a * dd - pd
                                if z < 0 or z >= D:
                                    continue
                                for e in range(kh):
                                    y = yo * sh + e * dh - ph
                                    if y < 0 or y >= H:
                                        continue
                                    for f in range(kw):
                                        xx = xo * sw + f * dw - pw
                                        if xx < 0 or xx >= W:
                                            continue
                                        acc += (w[oc, ic, a, e, f]
                                                * x[b, g * cig + ic, z, y, xx])
                        if bias is not None:
                            acc += bias[oc]
                        out[b, oc, zo, yo, xo] = acc
    return out


def conv3d_grads_reference(x, w, g, stride=(1, 1, 1), dilation=(1, 1, 1), padding=(0, 0, 0),
                           groups=1):
    """(dx, dw) of :func:`conv3d_reference`'s output against its gradient g,
    by the same loops: each product w * x that an output element sums adds
    g times its other factor to dx and to dw."""
    n, ci, D, H, W = x.shape
    co, _, kd, kh, kw = w.shape
    do, ho, wo = g.shape[2:]
    cig = ci // groups
    cog = co // groups
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for b in range(n):
        for oc in range(co):
            c0 = oc // cog * cig
            for zo in range(do):
                for yo in range(ho):
                    for xo in range(wo):
                        gv = g[b, oc, zo, yo, xo]
                        for ic in range(cig):
                            for a in range(kd):
                                z = zo * stride[0] + a * dilation[0] - padding[0]
                                if z < 0 or z >= D:
                                    continue
                                for e in range(kh):
                                    y = yo * stride[1] + e * dilation[1] - padding[1]
                                    if y < 0 or y >= H:
                                        continue
                                    for f in range(kw):
                                        xx = xo * stride[2] + f * dilation[2] - padding[2]
                                        if xx < 0 or xx >= W:
                                            continue
                                        dx[b, c0 + ic, z, y, xx] += w[oc, ic, a, e, f] * gv
                                        dw[oc, ic, a, e, f] += x[b, c0 + ic, z, y, xx] * gv
    return dx, dw


def trilinear_reference(x, scale):
    """Eight-corner trilinear interpolation, align-corners=false, clamped."""
    n, c, D, H, W = x.shape
    sd, sh, sw = scale
    out = np.zeros((n, c, D * sd, H * sh, W * sw), dtype=x.dtype)

    def coords(o, s, size):
        src = min(max((o + 0.5) / s - 0.5, 0.0), size - 1)
        i0 = min(int(np.floor(src)), size - 1)
        i1 = min(i0 + 1, size - 1)
        return i0, i1, src - i0

    for b in range(n):
        for ch in range(c):
            for od in range(D * sd):
                d0, d1, fd = coords(od, sd, D)
                for oh in range(H * sh):
                    h0, h1, fh = coords(oh, sh, H)
                    for ow in range(W * sw):
                        w0, w1, fw = coords(ow, sw, W)
                        v = 0.0
                        for (di, wd) in ((d0, 1 - fd), (d1, fd)):
                            for (hi, wh) in ((h0, 1 - fh), (h1, fh)):
                                for (wi, ww) in ((w0, 1 - fw), (w1, fw)):
                                    v += wd * wh * ww * x[b, ch, di, hi, wi]
                        out[b, ch, od, oh, ow] = v
    return out


def batch_norm_relu_backward_reference(g, x, out, mean, var, gamma, eps, mode):
    """(dx, dgamma, dbeta) of relu(batch_norm(x)) by the closed-form rule, one
    fresh temporary per term: with g masked by ``out > 0``,
    ``dx = gamma inv (g - (dbeta + xhat dgamma) / count)`` in train mode and
    ``gamma inv g`` in eval mode. ``out`` is the forward output; ``mean`` and
    ``var`` are the statistics it normalized with."""
    axes = (0, 2, 3, 4)
    shape = (1, -1, 1, 1, 1)
    inv = 1.0 / np.sqrt(var + eps)
    count = x.size // x.shape[1]
    g = g * (out > 0)
    xhat = (x - mean.reshape(shape)) * inv.reshape(shape)
    dgamma = (g * xhat).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    scale = (gamma * inv).reshape(shape)
    if mode != "train":
        return g * scale, dgamma, dbeta
    dx = (g - (xhat * dgamma.reshape(shape) + dbeta.reshape(shape)) / count) * scale
    return dx, dgamma, dbeta


def batch_norm_relu_backward_chain_rule(g, x, out, mean, var, gamma, eps, mode):
    """(dx, dgamma, dbeta) of relu(batch_norm(x)) by the textbook chain rule
    of Ioffe & Szegedy, through dxhat, dvar and dmean, one fresh temporary per
    term. Its arithmetic differs from the closed form's, so it serves as a
    float64 cross-check, not a bitwise oracle."""
    axes = (0, 2, 3, 4)
    shape = (1, -1, 1, 1, 1)
    inv = 1.0 / np.sqrt(var + eps)
    count = x.size // x.shape[1]
    g = g * (out > 0)
    xm = x - mean.reshape(shape)
    xhat = xm * inv.reshape(shape)
    dgamma = (g * xhat).sum(axis=axes)
    dbeta = g.sum(axis=axes)
    dxhat = g * gamma.reshape(shape)
    if mode != "train":
        return dxhat * inv.reshape(shape), dgamma, dbeta
    dvar = (dxhat * xm).sum(axis=axes) * (-0.5) * inv**3
    dmean = (-(dxhat).sum(axis=axes) * inv
             + dvar * (-2.0 / count) * xm.sum(axis=axes))
    dx = (dxhat * inv.reshape(shape)
          + dvar.reshape(shape) * (2.0 / count) * xm
          + dmean.reshape(shape) / count)
    return dx, dgamma, dbeta


def adam_reference(theta0, grads, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8,
                   weight_decay=0.0):
    """Scalar Adam with bias correction and coupled L2; returns the trajectory."""
    theta = float(theta0)
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        g = float(g) + weight_decay * theta
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)
        out.append(theta)
    return out


def make_balanced_case(size=32, noise=0.3, seed=7):
    """Synthetic labeled volume with roughly equal class volumes.

    Four axis-aligned slabs carry labels 0/1/2/4; the image channels encode
    the label identity plus Gaussian noise, so the task is cleanly learnable.
    """
    rng = np.random.default_rng(seed)
    half = size // 2
    lab = np.zeros((size, size, size), dtype=np.uint8)
    lab[:half, :half] = 1
    lab[:half, half:] = 2
    lab[half:, :half] = 4
    base = np.zeros((size, size, size), dtype=np.float32)
    for i, v in enumerate((0, 1, 2, 4)):
        base[lab == v] = i + 1.0
    vol = base[None].repeat(4, axis=0)
    vol = vol + noise * rng.standard_normal(vol.shape).astype(np.float32)
    return vol.astype(np.float32), lab


def make_tumor_case(size=32, noise=0.3, seed=7):
    """Synthetic case with nested-sphere (BraTS-like, imbalanced) labels."""
    rng = np.random.default_rng(seed)
    zz, yy, xx = np.mgrid[:size, :size, :size]
    c = (size - 1) / 2
    r = np.sqrt((zz - c) ** 2 + (yy - c) ** 2 + (xx - c) ** 2)
    lab = np.zeros((size, size, size), dtype=np.uint8)
    lab[r < size * 0.38] = 2
    lab[r < size * 0.25] = 1
    lab[r < size * 0.12] = 4
    base = np.zeros((size, size, size), dtype=np.float32)
    for i, v in enumerate((0, 1, 2, 4)):
        base[lab == v] = i + 1.0
    vol = base[None].repeat(4, axis=0)
    vol = vol + noise * rng.standard_normal(vol.shape).astype(np.float32)
    return vol.astype(np.float32), lab
