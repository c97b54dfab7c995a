"""Dilated multi-fiber 3D segmentation networks on hand-written numpy kernels.

The package is organized as a library:

    ops        rank-5 tensor kernels (conv3d, batch norm, upsampling, ...)
    autograd   tape-based reverse-mode differentiation + finite-diff checker
    blocks     fused BN+ReLU, multiplexer, MF unit, DMF unit
    network    encoder-decoder assembly, presets, label prediction
    analysis   exact parameter / conv-FLOPs accounting
    losses     generalized dice loss, region dice metrics
    data       case files, normalization, augmentation, checkpoints
    training   Adam, the training loop, omega-trajectory logging
    cli        `dmfnet` command-line tool
"""

from .analysis import ComplexityReport, count_flops, report_table
from .autograd import (CheckReport, GradTape, Parameter, backward, finite_diff_check,
                       forward_record)
from .blocks import DMFUnit, DMFUnitConfig, MFUnit, MFUnitConfig, Multiplexer
from .data import AugmentConfig, augment, load_case, load_params, normalize, save_case, save_params
from .losses import RegionSpec, dice_region, generalized_dice_loss, one_hot, region_specs
from .network import (ArchConfig, Network, build_network, dmfnet_config, mfnet_075_config,
                      mfnet_config, predict_labels, toy_config)
from .ops import ConvSpec
from .training import TrainConfig, TrainLog, adam_step, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "ArchConfig", "AugmentConfig", "CheckReport", "ComplexityReport",
    "ConvSpec", "DMFUnit", "DMFUnitConfig", "GradTape", "MFUnit", "MFUnitConfig",
    "Multiplexer", "Network", "Parameter", "RegionSpec", "TrainConfig", "TrainLog",
    "adam_step", "augment", "backward", "build_network", "count_flops", "dice_region",
    "dmfnet_config", "evaluate", "finite_diff_check", "forward_record",
    "generalized_dice_loss", "load_case", "load_params", "mfnet_075_config", "mfnet_config",
    "normalize", "one_hot", "predict_labels", "region_specs", "report_table", "save_case",
    "save_params", "toy_config", "train",
]
