#!/usr/bin/env python3
"""Tour of the rank-5 volume kernels: grouped, strided and dilated 3D
convolution, batch norm (and the fused BN+ReLU layer), trilinear upsampling.

Everything operates on plain numpy arrays of shape (batch, channel, d, h, w).
"""

import numpy as np

from dmfnet import blocks, ops

rng = np.random.default_rng(0)

# --- a first convolution ---------------------------------------------------
# One all-ones 3x3x3 kernel over an all-ones 3x3x3 volume sums 27 ones.
x = np.ones((1, 1, 3, 3, 3), dtype=np.float32)
w = np.ones((1, 1, 3, 3, 3), dtype=np.float32)
spec = ops.ConvSpec(c_in=1, c_out=1, kernel=3)
print("3x3x3 ones * ones ->", ops.conv3d(x, w, spec).ravel())  # [27.]

# --- channel grouping ------------------------------------------------------
# With g groups, output group i only reads input group i, and the weight
# tensor shrinks to c_in/g input channels per filter.
spec_g = ops.ConvSpec(c_in=8, c_out=8, kernel=3, padding=1, groups=4)
print("\ngrouped conv weight shape:", spec_g.weight_shape)
print("parameters: ", np.prod(spec_g.weight_shape), "=", "27*8*8/4")

x = rng.standard_normal((1, 8, 6, 6, 6)).astype(np.float32)
w = rng.standard_normal(spec_g.weight_shape).astype(np.float32)
base = ops.conv3d(x, w, spec_g)
x_perturbed = x.copy()
x_perturbed[:, 6:] += 10.0  # poke the last group
out = ops.conv3d(x_perturbed, w, spec_g)
changed = [c for c in range(8) if not np.array_equal(base[:, c], out[:, c])]
print("perturbing input group 3 changed output channels:", changed)

# --- dilation --------------------------------------------------------------
# A dilation-d kernel samples the input at offsets d apart, so a 3-kernel
# covers an extent of 2d+1 voxels per axis without extra parameters.
for d in (1, 2, 3):
    spec_d = ops.ConvSpec(1, 1, kernel=3, dilation=d)
    print(f"dilation {d}: effective extent {spec_d.effective_kernel}")

impulse = np.zeros((1, 1, 9, 9, 9), dtype=np.float32)
impulse[0, 0, 4, 4, 4] = 1.0
resp = ops.conv3d(impulse, np.ones((1, 1, 3, 3, 3), dtype=np.float32),
                  ops.ConvSpec(1, 1, kernel=3, dilation=3, padding=3))
support = np.argwhere(resp[0, 0] != 0)
print("impulse response support spans",
      support.min(axis=0), "to", support.max(axis=0), "(extent 7 per axis)")

# --- batch norm ------------------------------------------------------------
# BatchNorm3d holds gamma/beta and the running statistics. ops.batch_norm is
# the plain BN reference; the layer's forward is BN+ReLU as one op, the
# pre-activation that precedes every conv inside the MF/DMF units.
bn = blocks.BatchNorm3d("bn", 3)
x = rng.standard_normal((2, 3, 4, 4, 4)).astype(np.float32) * 5 + 2
y = ops.batch_norm(x, bn, mode="train")
print("\nbatch norm: input channel means ", x.mean(axis=(0, 2, 3, 4)).round(2))
print("            output channel means", y.mean(axis=(0, 2, 3, 4)).round(6))
print("            running mean after one step:", bn.running_mean.round(2))
a = bn.forward(x, mode="eval")
print("BN+ReLU (eval): min", a.min(), "and share of zeros", round(float((a == 0).mean()), 2))

# --- trilinear upsampling --------------------------------------------------
# align-corners=false: output voxel i samples the source at (i+0.5)/s - 0.5.
ramp = np.zeros((1, 1, 2, 1, 1), dtype=np.float32)
ramp[0, 0, 1] = 1.0
up = ops.trilinear_upsample(ramp, (2, 1, 1))
print("\n2 -> 4 upsample of a 0..1 ramp:", up.ravel())  # 0, .25, .75, 1
big = ops.trilinear_upsample(rng.standard_normal((1, 2, 4, 4, 4)), 2)
print("upsampled shape:", big.shape, "(no overshoot: interpolation is convex)")
