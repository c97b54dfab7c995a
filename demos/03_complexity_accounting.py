#!/usr/bin/env python3
"""Static parameter/FLOPs accounting over the shipped network variants.

FLOPs are multiply-add pairs of convolution layers at a 4x128^3 input
(BN, ReLU, interpolation and softmax excluded). They are read from a
recorded eval forward at the smallest legal input (1x4x16^3) and scaled to
the requested shape, so even the full-scale networks take well under a
second.
"""

from dmfnet import analysis, network

SHAPE = (1, 4, 128, 128, 128)

reports = []
names = ["dmfnet", "mfnet", "mfnet-075"]
for name in names:
    net = network.build_network(network.ARCH_PRESETS[name](), seed=0)
    reports.append(analysis.count_flops(net, SHAPE))

print(analysis.report_table(reports, names))

# the width multiplier scales every stage, rounding to multiples of g=16
cfg = network.mfnet_075_config()
print("\n0.75x stage widths:", cfg.scaled_channels())
print("1.00x stage widths:", network.mfnet_config().scaled_channels())

# per-layer drill-down for one variant
net = network.build_network(network.dmfnet_config(), seed=0)
rep = analysis.count_flops(net, SHAPE)
print("\nheaviest layers by FLOPs:")
for row in sorted(rep.rows, key=lambda r: -r.flops)[:8]:
    print(f"  {row.name:36s} {row.params:9d} params  {row.flops / 1e9:6.2f} GFLOPs")

print("\nFLOPs scale linearly with volume: at 64^3 the same net costs",
      f"{analysis.count_flops(net, (1, 4, 64, 64, 64)).flops_g:.2f} G",
      f"(= {rep.flops_g:.2f}/8)")
