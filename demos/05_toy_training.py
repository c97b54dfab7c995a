#!/usr/bin/env python3
"""Overfit a width-reduced dilated network on one synthetic labeled volume
and watch the branch weights drift away from their 1.0 initialization.

Runs ~120 Adam steps on a 32^3 volume; a couple of minutes on one CPU core.
The synthetic labels are class-balanced on purpose: with a heavily
imbalanced volume the generalized dice loss can drive an untrained float32
network into saturated all-background predictions whose gradients vanish
exactly, stalling training. (Real pipelines train on large crops where the
weighting behaves.)
"""

import numpy as np

from dmfnet import losses, network, training

# synthetic case: four equal-volume slabs labeled 0/1/2/4, image channels
# encode the label identity plus noise
rng = np.random.default_rng(7)
SIZE = 32
lab = np.zeros((SIZE, SIZE, SIZE), dtype=np.uint8)
lab[:16, :16] = 1
lab[:16, 16:] = 2
lab[16:, :16] = 4
base = np.zeros_like(lab, dtype=np.float32)
for i, v in enumerate((0, 1, 2, 4)):
    base[lab == v] = i + 1.0
vol = base[None].repeat(4, axis=0) + 0.3 * rng.standard_normal((4, SIZE, SIZE, SIZE)).astype(np.float32)
vol = vol.astype(np.float32)

cfg = network.toy_config(groups=4, stage_channels=(8, 16, 24, 32, 16, 16, 8))
net = network.build_network(cfg, seed=0)
from dmfnet import analysis
print(f"toy network: {analysis.count_flops(net).total_params:,} parameters, "
      f"{len(net.omega_parameters())} dilated units\n")

tcfg = training.TrainConfig(epochs=120, lr=1e-3, seed=0)
log = training.train(net, [(vol, lab)], tcfg)

print("generalized dice loss:")
for step in (0, 5, 10, 20, 40, 80, 119):
    print(f"  step {step:3d}: {log.losses[step]:.4f}")

print("\nbranch weights (w1, w2, w3) after training:")
for rec in log.omega:
    if rec["epoch"] == tcfg.epochs - 1:
        print(f"  {rec['unit']}: ({rec['w1']:+.3f}, {rec['w2']:+.3f}, {rec['w3']:+.3f})")

records, means = training.evaluate(net, [(vol, lab)])
print("\ndice on the training volume:",
      {k: round(v, 3) for k, v in means.items()})
