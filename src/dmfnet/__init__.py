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
    errors     the DMFNetError types a bad input raises
    cli        `dmfnet` command-line tool
"""
