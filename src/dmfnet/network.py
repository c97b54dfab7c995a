"""Encoder-decoder segmentation networks assembled from MF/DMF units.

Layout (strides in parentheses):

    stem: plain 3x3x3 conv, input_channels -> stem width (2)
    encoder: three stages of three units each; the first unit of every stage
        downsamples with stride 2; the first `dilated_unit_count` encoder
        units are DMF units, the rest MF units
    decoder: three times [trilinear upsample x2, concat encoder skip, MF unit];
        the upsample writes straight into its concat buffer
    head: an ungrouped, bias-free 1x1x1 classifier conv with one output channel
        per label in CLASS_LABELS, then trilinear upsample x(stem stride) of the
        logits to full resolution; the upsample acts on each channel alone, so
        this equals classifying upsampled features, with the conv at 1/stride^3
        of the voxels

The default stage widths were tuned (starting from 32/64/128 and adjusting,
see README) until the complexity accounting in :mod:`dmfnet.analysis`
reproduces the published parameter/FLOP totals of the full-scale, plain and
0.75x variants. Widths are configuration data, not architecture code: pass a
different :class:`ArchConfig` for toy-sized models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autograd as ag
from . import ops
from .blocks import Block, Conv3dLayer, DMFUnitConfig, MFUnit, DMFUnit, MFUnitConfig, check_dilated
from .errors import CheckpointError, ConfigError, ShapeError, hold_floats

# BraTS MRI modalities, in input channel order
MODALITIES = ("t1", "t1ce", "t2", "flair")
# BraTS label alphabet; class index i maps to CLASS_LABELS[i]
CLASS_LABELS = (0, 1, 2, 4)

UNITS_PER_STAGE = 3
NUM_STAGES = 3


@dataclass(frozen=True)
class ArchConfig:
    """Declarative architecture description.

    stage_channels lists seven widths: stem, three encoder stages, three
    decoder unit outputs. All widths must be divisible by ``groups`` after
    the width multiplier is applied (rounding to the nearest multiple of
    ``groups``, half up). ``input_channels``, one per modality in MODALITIES,
    is a class constant, not a config key.
    """

    input_channels = len(MODALITIES)
    groups: int = 16
    width_multiplier: float = 1.0
    stage_channels: tuple = (32, 128, 272, 432, 144, 64, 16)
    dilated_unit_count: int = 6
    dilation_rates: tuple = (1, 2, 3)
    weight_mode: str = "learnable"
    stem_stride: int = 2

    def __post_init__(self):
        hold_floats(self)
        object.__setattr__(self, "stage_channels", tuple(int(c) for c in self.stage_channels))
        # checked here too: a net with no DMF unit builds none to check them
        object.__setattr__(self, "dilation_rates", check_dilated(self.dilation_rates, self.weight_mode))
        if len(self.stage_channels) != 7:
            raise ConfigError(
                "stage_channels needs 7 entries (stem, enc1..enc3, dec1..dec3), "
                f"got {len(self.stage_channels)}")
        if self.width_multiplier <= 0:
            raise ConfigError(f"width_multiplier must be positive, got {self.width_multiplier}")
        if self.stem_stride not in (1, 2):
            raise ConfigError(f"stem_stride must be 1 or 2, got {self.stem_stride}")
        if not 0 <= self.dilated_unit_count <= NUM_STAGES * UNITS_PER_STAGE:
            raise ConfigError(
                f"dilated_unit_count must lie in [0, {NUM_STAGES * UNITS_PER_STAGE}]")
        if self.groups < 1:
            raise ConfigError(f"groups must be at least 1, got {self.groups}")
        names = ("stem", "enc1", "enc2", "enc3", "dec1", "dec2", "dec3")
        for name, c in zip(names, self.stage_channels):
            if c < 1:
                raise ConfigError(f"stage {name} width must be at least 1, got {c}")
            if c % self.groups:
                raise ConfigError(
                    f"stage {name} width {c} is not divisible by groups={self.groups}")
        # scaled_channels cannot round a width that the multiplier makes inf
        if not np.isfinite(max(self.stage_channels) * self.width_multiplier):
            raise ConfigError(f"width_multiplier {self.width_multiplier} overflows the stage widths")
        # numpy refuses arrays over intp-max bytes; no weight exceeds 2 * widest^2 * 27 float64s
        widest = max(self.scaled_channels())
        if 2 * widest**2 * 27 * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"a width of {widest} channels overflows numpy's array size limit")

    def scaled_channels(self):
        """Stage widths after the multiplier, rounded to multiples of groups."""
        m = self.width_multiplier
        g = self.groups
        return tuple(max(g, int(c * m / g + 0.5) * g) for c in self.stage_channels)

    @property
    def downsample_factor(self):
        return self.stem_stride * 2 ** NUM_STAGES


def dmfnet_config(**overrides):
    """Full-scale network with six leading dilated encoder units."""
    return replace(ArchConfig(), **overrides)


def mfnet_config(**overrides):
    """Plain multi-fiber variant (no dilated units)."""
    return replace(ArchConfig(dilated_unit_count=0), **overrides)


def mfnet_075_config(**overrides):
    """MFNet with every stage width scaled to 75%."""
    return replace(ArchConfig(dilated_unit_count=0, width_multiplier=0.75), **overrides)


def toy_config(**overrides):
    """Small widths for tests, demos and CPU training experiments."""
    return replace(ArchConfig(groups=4, stage_channels=(8, 16, 24, 32, 16, 16, 8)), **overrides)


ARCH_PRESETS = {
    "dmfnet": dmfnet_config,
    "mfnet": mfnet_config,
    "mfnet-075": mfnet_075_config,
    "toy": toy_config,
}


class Network(Block):
    """Realized layer graph with its parameter store."""

    def __init__(self, cfg, stem, stages, decoder, classifier, dtype):
        self.cfg = cfg
        self.stem = stem
        self.stages = stages          # list of stage lists of units
        self.decoder = decoder       # list of units, deep to shallow
        self.classifier = classifier
        self.dtype = dtype

    # -- forward ----------------------------------------------------------

    def _check_input(self, shape):
        if len(shape) != 5 or any(s <= 0 for s in shape):
            raise ShapeError(
                f"input shape must be five positive sizes (n, c, d, h, w), got {tuple(shape)}")
        if shape[1] != self.cfg.input_channels:
            raise ShapeError(
                f"input has {shape[1]} channels, network expects {self.cfg.input_channels}")
        f = self.cfg.downsample_factor
        if any(s % f for s in shape[2:]):
            raise ShapeError(
                f"spatial dims {shape[2:]} must each be divisible by {f} "
                f"(stem stride {self.cfg.stem_stride} x {NUM_STAGES} stage strides of 2)")

    def forward(self, x, mode="eval", tape=None):
        """Logits with the input's spatial dims, one channel per label in CLASS_LABELS."""
        self._check_input(ag._data(x).shape)
        h = self.stem.forward(x, mode, tape)
        skips = []
        for stage in self.stages:
            skips.append(h)
            for unit in stage:
                h = unit.forward(h, mode, tape)
        # skips: stem out (1/s0), the first two stage outputs (1/2s0, 1/4s0);
        # each is released once its concat has copied it
        for unit in self.decoder:
            h = unit.forward(ag.t_upsample_concat(tape, h, skips.pop(), 2), mode, tape)
        logits = self.classifier.forward(h, mode, tape)
        s = self.cfg.stem_stride
        return logits if s == 1 else ag.t_trilinear_upsample(tape, logits, s)

    # -- parameter access --------------------------------------------------

    def omega_parameters(self):
        """(unit name, omega Parameter) for every DMF unit, encoder order."""
        return [(p.name.removesuffix(".omega"), p) for p in self.parameters()
                if p.name.endswith(".omega")]

    def state_items(self):
        """Ordered (name, array) pairs: parameters then running statistics."""
        items = [(p.name, p.data) for p in self.parameters()]
        items += [(name, arr) for name, arr in self.buffers()]
        return items


def build_network(cfg, seed=0, dtype=np.float32):
    """Construct a network with freshly initialized parameters.

    Kaiming fan-in init for conv weights, gamma=1/beta=0 for batch norm,
    omega=1 for every dilated unit. Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    widths = cfg.scaled_channels()
    stem_w, e1, e2, e3, d1, d2, d3 = widths

    stem = Conv3dLayer(
        "stem",
        ops.ConvSpec(cfg.input_channels, stem_w, kernel=3, stride=cfg.stem_stride,
                     padding=ops.same_padding(3)),
        rng, dtype)

    stages = []
    c_prev = stem_w
    for s, c_out in enumerate((e1, e2, e3)):
        stage = []
        for u in range(UNITS_PER_STAGE):
            layout = dict(c_in=c_prev, c_mid=min(c_prev, c_out), c_out=c_out, g=cfg.groups,
                          stride=2 if u == 0 else 1)
            if s * UNITS_PER_STAGE + u < cfg.dilated_unit_count:
                ucfg = DMFUnitConfig(**layout, dilation_rates=cfg.dilation_rates,
                                     weight_mode=cfg.weight_mode)
                stage.append(DMFUnit(f"enc{s + 1}.u{u}", ucfg, rng, dtype))
            else:
                stage.append(MFUnit(f"enc{s + 1}.u{u}", MFUnitConfig(**layout), rng, dtype))
            c_prev = c_out
        stages.append(stage)

    decoder = []
    skip_widths = (e2, e1, stem_w)
    for s, (skip_w, c_out) in enumerate(zip(skip_widths, (d1, d2, d3))):
        c_in = c_prev + skip_w
        ucfg = MFUnitConfig(c_in=c_in, c_mid=min(c_in, c_out), c_out=c_out, g=cfg.groups)
        decoder.append(MFUnit(f"dec{s + 1}", ucfg, rng, dtype))
        c_prev = c_out

    classifier = Conv3dLayer(
        "classifier",
        ops.ConvSpec(d3, len(CLASS_LABELS), kernel=1, padding=0),
        rng, dtype)

    return Network(cfg, stem, stages, decoder, classifier, dtype)


def predict_labels(logits):
    """Per-voxel argmax over classes mapped to BraTS labels {0, 1, 2, 4}.

    Ties break toward the lower class index (numpy argmax convention).
    """
    logits = ops.check_volume5d(logits, "logits")
    if logits.shape[1] != len(CLASS_LABELS):
        raise ShapeError(
            f"logits have {logits.shape[1]} channels, expected {len(CLASS_LABELS)} classes")
    idx = logits.argmax(axis=1)
    return np.asarray(CLASS_LABELS, dtype=np.uint8)[idx]


def segment(net, x):
    """BraTS labels (n, d, h, w) for (n, c, d, h, w) volumes of any spatial size.

    Zero-pads the high end of each spatial axis to a multiple of
    ``net.cfg.downsample_factor``, runs the eval forward, takes the argmax and
    crops the labels back. A volume of the net's dtype that needs no padding
    is not copied. Finite weights can still overflow on the way: logits that
    are not all finite raise CheckpointError, and the forward warns of no
    overflow.
    """
    x = np.asarray(x, dtype=net.dtype)
    f = net.cfg.downsample_factor
    size = x.shape[2:]
    pads = ((0, 0), (0, 0)) + tuple((0, -s % f) for s in size)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        logits = net.forward(np.pad(x, pads) if any(p for _, p in pads) else x, mode="eval")
    if not np.isfinite(logits).all():
        raise CheckpointError("the logits are not finite: the checkpoint's weights overflow "
                              f"{np.dtype(net.dtype).name} on this input")
    return predict_labels(logits)[(Ellipsis,) + tuple(slice(0, s) for s in size)]
