"""Composite units: multiplexer, multi-fiber (MF) unit and dilated
multi-fiber (DMF) unit.

Topology of one MF unit (BN+ReLU, one :class:`BatchNorm3d` op, before every conv):

    x -> multiplexer -> [BN,ReLU, grouped 3x3x3 conv c_in->c_mid, stride s]
      -> [BN,ReLU, grouped 3x3x3 conv c_mid->c_out] -> (+ shortcut(x))

Each residual add runs inside the conv before it (``residual=`` of
:func:`dmfnet.autograd.t_conv3d`), so the tape keeps no separate conv output.
Each BN+ReLU runs inside the one conv that reads it (``bn=``), whose kernels
read it a band of planes at a time, forward and backward, so the tape keeps
no BN+ReLU output.

The multiplexer squeezes channels c -> c/2 -> c with two ungrouped 1x1x1
convs and its own residual shortcut. A DMF unit replaces the first grouped
conv with three parallel dilated branches (rates 1, 2, 3 by default) combined
by a weighted sum with one-initialized scalar weights. No nonlinearity sits
between the branches and their sum, so the unit runs them as one conv over
three dilated views of its ``bn1`` BN+ReLU, with the kernel
``[omega_1 W_1 | omega_2 W_2 | omega_3 W_3]`` (``omega=`` of
:func:`dmfnet.autograd.t_conv3d`); the sum is exact in real arithmetic, in
training as in eval.

An untaped eval forward keeps nothing for backward, and its BN+ReLU acts per
voxel, so there the multiplexer runs squeeze, BN+ReLU, inflate and its add
one band of depth planes at a time (:meth:`Multiplexer.forward`): the squeeze
output is never whole. A decoder unit's input is the concat buffer the
network has just made, which nothing else reads. Untaped in eval mode, such
a unit runs its projection shortcut first, then lets its multiplexer write
each band's output back into that buffer. An encoder unit never does: its
input is a skip or its identity residual. Train mode and every recorded
forward, eval ones included, keep the same nodes in the same order:
multiplexer, first conv, shortcut, second conv. All paths give the same bits.

Every layer and unit lists its sublayers once, as attributes set in
``__init__``: :class:`Block` walks them in definition order to give the
parameters and running statistics, so that order is also the checkpoint
layout. The forward pass is the only description of how they connect.

Blocks are immutable after construction except for parameter updates; forward
is reentrant for distinct activation buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import ops
from .autograd import Parameter
from .errors import ConfigError, ShapeError


def kaiming_normal(rng, shape, fan_in, dtype):
    """He initialization: zero-mean normal with std sqrt(2 / fan_in)."""
    std = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal(shape) * std).astype(dtype)


@dataclass(frozen=True)
class MFUnitConfig:
    """Channel/group layout of one multi-fiber unit."""

    c_in: int
    c_mid: int
    c_out: int
    g: int = 16
    stride: int = 1

    def __post_init__(self):
        for label, c in (("c_in", self.c_in), ("c_mid", self.c_mid), ("c_out", self.c_out)):
            if c % self.g:
                raise ConfigError(f"groups g={self.g} must divide {label}={c}")
        if self.c_in % 2:
            raise ConfigError(f"c_in={self.c_in} must be even (multiplexer squeeze to c_in/2)")
        if self.stride not in (1, 2):
            raise ConfigError(f"unit stride must be 1 or 2, got {self.stride}")


def check_dilated(rates, weight_mode):
    """A DMF unit's dilation rates as a tuple of ints, once they and its weight_mode pass."""
    rates = tuple(int(d) for d in rates)
    if not rates or any(d < 1 for d in rates) or len(set(rates)) != len(rates):
        raise ConfigError(f"need one or more positive, distinct dilation rates, got {rates}")
    if weight_mode not in ("learnable", "fixed_equal"):
        raise ConfigError(f"weight_mode must be 'learnable' or 'fixed_equal', got {weight_mode!r}")
    return rates


@dataclass(frozen=True)
class DMFUnitConfig(MFUnitConfig):
    dilation_rates: tuple = (1, 2, 3)
    weight_mode: str = "learnable"

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "dilation_rates", check_dilated(self.dilation_rates, self.weight_mode))


class Block:
    """Base of every layer, unit and network: one walk over the attributes.

    ``vars(self)`` is read in definition order; a Parameter is taken, a
    Block is recursed into and a list (``branches``, ``stages``) is
    flattened. Anything else (specs, configs, names) is skipped.
    """

    def _members(self, values=None):
        for v in vars(self).values() if values is None else values:
            if isinstance(v, list):
                yield from self._members(v)
            elif isinstance(v, (Parameter, Block)):
                yield v

    def parameters(self):
        out = []
        for v in self._members():
            if isinstance(v, Block):
                out += v.parameters()
            else:
                out.append(v)
        return out

    def buffers(self):
        """(name, array) running statistics; only batch norm holds any."""
        out = []
        for v in self._members():
            if isinstance(v, Block):
                out += v.buffers()
        return out


class Conv3dLayer(Block):
    """Bare convolution layer owning its weight; convs sit behind batch norm
    and carry no bias."""

    def __init__(self, name, spec, rng, dtype=np.float32):
        self.name = name
        self.spec = spec
        fan_in = (spec.c_in // spec.groups) * int(np.prod(spec.kernel))
        self.weight = Parameter(f"{name}.weight",
                                kaiming_normal(rng, spec.weight_shape, fan_in, dtype))

    def forward(self, x, mode="train", tape=None):
        return ag.t_conv3d(tape, x, self.weight, self.spec)


class BatchNorm3d(Block):
    """Pre-activation BN+ReLU and the one holder of batch-norm state: learnable
    gamma/beta plus running statistics, read and updated by :meth:`moments`."""

    eps = 1e-5
    momentum = 0.1

    def __init__(self, name, channels, dtype=np.float32):
        self.name = name
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels, dtype=dtype))
        self.beta = Parameter(f"{name}.beta", np.zeros(channels, dtype=dtype))
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def moments(self, x, mode):
        """The per-channel (mean, var) that batch norm normalizes ``x`` with:
        in train mode the batch statistics, which also update
        ``running_mean/var`` in place; in eval mode copies of the running stats."""
        if x.shape[1] != self.running_mean.shape[0]:
            raise ShapeError(f"input has {x.shape[1]} channels, batch norm expects "
                             f"{self.running_mean.shape[0]}")
        if mode == "train":
            mean, var = ops.batch_norm_stats(x)
            m = self.momentum
            self.running_mean[:] = (1 - m) * self.running_mean + m * mean
            self.running_var[:] = (1 - m) * self.running_var + m * var
            return mean, var
        if mode == "eval":
            return self.running_mean.copy(), self.running_var.copy()
        raise ConfigError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")

    def affine(self, x, mode):
        """(mean, var, gamma, beta, eps) with :meth:`moments` in ``mode``: the
        affine that the conv kernels read ``x``'s BN+ReLU through (``bn=`` of
        :func:`dmfnet.ops.conv3d`)."""
        mean, var = self.moments(x, mode)
        return mean, var, self.gamma.data, self.beta.data, self.eps

    def forward(self, x, mode="train", tape=None):
        """BN+ReLU as a node of its own. No unit calls it: every BN+ReLU runs
        inside the conv that reads it. It makes the layer a block that the
        finite-difference checks run alone."""
        return ag.t_batch_norm(tape, x, self, mode)

    def buffers(self):
        return [
            (f"{self.name}.running_mean", self.running_mean),
            (f"{self.name}.running_var", self.running_var),
        ]


class PreActConv(Block):
    """BN+ReLU -> conv, the ordering used inside MF/DMF units, run as one
    conv that reads ``relu(bn(x))`` (``bn=`` of :func:`dmfnet.autograd.t_conv3d`)."""

    def __init__(self, name, spec, rng, dtype=np.float32):
        self.name = name
        self.bn = BatchNorm3d(f"{name}.bn", spec.c_in, dtype=dtype)
        self.conv = Conv3dLayer(f"{name}.conv", spec, rng, dtype=dtype)

    def forward(self, x, mode="train", tape=None, residual=None):
        return ag.t_conv3d(tape, x, self.conv.weight, self.conv.spec, residual=residual,
                           bn=self.bn, mode=mode)


class Multiplexer(Block):
    """Squeeze-then-inflate 1x1x1 conv pair with a residual shortcut.

    Routes information across fibers: channels go c_in -> c_in/2 -> c_in with
    pre-activation BN+ReLU before each conv. The inflate conv is the channel
    transpose of the squeeze conv, so the pair holds exactly c_in^2/2 weights,
    half the cost of a single full 1x1x1 conv (c_in^2).
    """

    def __init__(self, name, c_in, rng, dtype=np.float32):
        if c_in % 2:
            raise ConfigError(f"multiplexer input channels must be even, got {c_in}")
        self.name = name
        self.squeeze_spec = ops.ConvSpec(c_in, c_in // 2, kernel=1, padding=0)
        self.inflate_spec = ops.ConvSpec(c_in // 2, c_in, kernel=1, padding=0)
        # attribute order is the checkpoint order: squeeze BN, weight, inflate BN
        self.bn_squeeze = BatchNorm3d(f"{name}.bn_squeeze", c_in, dtype=dtype)
        self.weight = Parameter(f"{name}.weight",
                                kaiming_normal(rng, self.squeeze_spec.weight_shape,
                                               c_in, dtype))
        self.bn_inflate = BatchNorm3d(f"{name}.bn_inflate", c_in // 2, dtype=dtype)

    def forward(self, x, mode="train", tape=None, out=None):
        """The pair and its shortcut as two conv nodes; or, untaped in eval
        mode, where each BN+ReLU is per voxel, one band of depth planes at a
        time (:func:`dmfnet.ops.band_planes`): squeeze, BN+ReLU, inflate and
        the add of the band of x, written into ``out`` (fresh by default; it
        may be x itself, each band being read before it is written). So the
        squeeze output is never whole. Either way, the bits are the same."""
        if tape is not None or mode != "eval":
            return self._pair(x, mode, tape)
        x = ops.check_volume5d(x)
        if out is None:
            out = np.empty(x.shape, dtype=x.dtype)
        step = ops.band_planes(x)
        for z in range(0, x.shape[2], step):
            out[:, :, z:z + step] = self._pair(x[:, :, z:z + step], mode, None)
        return out

    def _pair(self, x, mode, tape):
        """Squeeze, BN+ReLU, inflate (the squeeze's channel transpose) and
        the add of x, as two conv nodes."""
        h = ag.t_conv3d(tape, x, self.weight, self.squeeze_spec, bn=self.bn_squeeze, mode=mode)
        return ag.t_conv3d(tape, h, self.weight, self.inflate_spec, transpose_weight=True,
                           residual=x, bn=self.bn_inflate, mode=mode)


class MFUnit(Block):
    """Multi-fiber unit: multiplexer + two grouped 3x3x3 convs + outer shortcut.

    The first conv is built by ``_build_first`` and applied by ``_first``, the
    two hooks a DMF unit replaces. The projection shortcut, a 1x1x1 grouped
    conv carrying the unit's stride, is present only when the unit changes
    shape; identity shortcuts add no parameters.
    """

    config_type = MFUnitConfig

    def __init__(self, name, cfg, rng, dtype=np.float32):
        if not isinstance(cfg, self.config_type):
            raise ConfigError(f"{type(self).__name__} needs a {self.config_type.__name__}")
        self.name = name
        self.cfg = cfg
        self.mux = Multiplexer(f"{name}.mux", cfg.c_in, rng, dtype)
        self._build_first(rng, dtype)
        self.conv2 = PreActConv(
            f"{name}.conv2",
            ops.ConvSpec(cfg.c_mid, cfg.c_out, kernel=3, stride=1,
                         padding=ops.same_padding(3), groups=cfg.g),
            rng, dtype)
        self.shortcut = None
        if cfg.c_in != cfg.c_out or cfg.stride != 1:
            self.shortcut = Conv3dLayer(
                f"{name}.shortcut",
                ops.ConvSpec(cfg.c_in, cfg.c_out, kernel=1, stride=cfg.stride,
                             padding=0, groups=cfg.g),
                rng, dtype)

    def _build_first(self, rng, dtype):
        cfg = self.cfg
        self.conv1 = PreActConv(
            f"{self.name}.conv1",
            ops.ConvSpec(cfg.c_in, cfg.c_mid, kernel=3, stride=cfg.stride,
                         padding=ops.same_padding(3), groups=cfg.g),
            rng, dtype)

    def _first(self, h, mode, tape):
        return self.conv1.forward(h, mode, tape)

    def forward(self, x, mode="train", tape=None, overwrite=False):
        """``overwrite`` says that nothing else reads x (a decoder's concat
        buffer). Untaped in eval mode, a unit with a projection shortcut then
        runs the shortcut first, lets the multiplexer write over x and lets x
        go once the first conv has read it, so the second conv runs without it."""
        if overwrite and tape is None and mode == "eval" and self.shortcut is not None:
            s = self.shortcut.forward(x, mode, tape)
            h = self._first(self.mux.forward(x, mode, tape, out=x), mode, tape)
            del x  # the first conv read the concat for the last time
        else:
            h = self._first(self.mux.forward(x, mode, tape), mode, tape)
            s = x if self.shortcut is None else self.shortcut.forward(x, mode, tape)
        return self.conv2.forward(h, mode, tape, residual=s)


class DMFUnit(MFUnit):
    """MF unit whose first grouped conv is split into parallel dilated branches.

    All branches share one pre-activation BN+ReLU, are same-padded so their
    outputs align, and are combined as a weighted sum with scalar weights
    initialized to 1 so every branch contributes equally at the start. Each
    branch keeps its own weight Parameter; ``spec`` describes them together,
    one view per dilation rate, and the unit runs them as one conv.
    """

    config_type = DMFUnitConfig
    # own attribute: a tracer that wraps MFUnit.forward must not wrap this one too
    forward = MFUnit.forward

    def _build_first(self, rng, dtype):
        cfg = self.cfg
        self.bn1 = BatchNorm3d(f"{self.name}.bn1", cfg.c_in, dtype=dtype)
        self.branches = []
        for d in cfg.dilation_rates:
            spec = ops.ConvSpec(cfg.c_in, cfg.c_mid, kernel=3, stride=cfg.stride,
                                dilation=d, padding=ops.same_padding(3, d), groups=cfg.g)
            self.branches.append(Conv3dLayer(f"{self.name}.branch_d{d}", spec, rng, dtype))
        self.omega = Parameter(f"{self.name}.omega",
                               np.ones(len(self.branches), dtype=dtype),
                               decay=False,
                               trainable=cfg.weight_mode == "learnable")
        self.spec = ops.ConvSpec(cfg.c_in, cfg.c_mid, kernel=3, stride=cfg.stride, groups=cfg.g,
                                 views=tuple((b.spec.dilation, b.spec.padding)
                                             for b in self.branches))

    def _first(self, h, mode, tape):
        return ag.t_conv3d(tape, h, [b.weight for b in self.branches], self.spec, bn=self.bn1,
                           mode=mode, omega=self.omega)
