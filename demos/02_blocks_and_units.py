#!/usr/bin/env python3
"""The building blocks: multiplexer, multi-fiber unit, dilated multi-fiber
unit, and the parameter algebra that makes them cheap.

A multi-fiber unit splits its channels into g independent "fibers" (grouped
convolutions), which divides the 3x3x3 conv parameters by g. The multiplexer
(a tied squeeze/inflate pair of 1x1x1 convs) routes information across
fibers for half the cost of a full 1x1x1 conv.
"""

import numpy as np

from dmfnet import analysis, blocks

rng = np.random.default_rng(0)

# --- multiplexer -----------------------------------------------------------
mux = blocks.Multiplexer("mux", 16, rng)
rep = analysis.count_flops(mux)
conv_params = sum(r.params for r in rep.rows if r.kind == "conv")
print("multiplexer on 16 channels:")
print("  conv parameters:", conv_params, "= 16^2/2 (inflate is the squeeze transposed)")
print("  a full 1x1x1 conv would need", 16 * 16)

mux.weight.data[:] = 0.0
x = rng.standard_normal((1, 16, 4, 4, 4)).astype(np.float32)
print("  zeroed weights pass the input through the shortcut:",
      np.array_equal(mux.forward(x), x))

# --- grouping cuts the fiber body by exactly g -----------------------------
print("\nfiber-body parameters (two grouped 3^3 convs, 16->16->16):")
for g in (1, 2, 4, 8, 16):
    unit = blocks.MFUnit("mf", blocks.MFUnitConfig(16, 16, 16, g=g), rng)
    body = sum(r.params for r in analysis.count_flops(unit).rows
               if r.kind == "conv" and (".conv1." in r.name or ".conv2." in r.name))
    print(f"  g={g:2d}: {body:6d}  (= {27 * (256 + 256)} / {g})")

# --- the dilated unit ------------------------------------------------------
# Three parallel branches with dilation 1, 2, 3 share one pre-activation and
# are combined by learnable scalar weights, one-initialized.
dmf = blocks.DMFUnit("dmf", blocks.DMFUnitConfig(16, 16, 16, g=4), rng)
print("\nDMF unit branch dilations:",
      [b.spec.dilation[0] for b in dmf.branches])
print("omega at init:", dmf.omega.data)

mf = blocks.MFUnit("mf", blocks.MFUnitConfig(16, 16, 16, g=4), rng)
d_total = analysis.count_flops(dmf).total_params
m_total = analysis.count_flops(mf).total_params
branch = 27 * 16 * 16 // 4
print(f"DMF params {d_total} = MF params {m_total} + 2 extra branches "
      f"({2 * branch}) + 3 scalars:", d_total == m_total + 2 * branch + 3)

# --- degeneracy: omega = (1, 0, 0) kills the dilated branches ---------------
# Copy the d=1 branch into a plain MF unit; the two then agree bit-exactly.
mf2 = blocks.MFUnit("mf", blocks.MFUnitConfig(16, 16, 16, g=4), np.random.default_rng(99))
mf2.mux.weight.data[...] = dmf.mux.weight.data
for src, dst in ((dmf.mux.bn_squeeze, mf2.mux.bn_squeeze),
                 (dmf.mux.bn_inflate, mf2.mux.bn_inflate),
                 (dmf.bn1, mf2.conv1.bn),
                 (dmf.conv2.bn, mf2.conv2.bn)):
    dst.gamma.data[...] = src.gamma.data
    dst.beta.data[...] = src.beta.data
mf2.conv1.conv.weight.data[...] = dmf.branches[0].weight.data
mf2.conv2.conv.weight.data[...] = dmf.conv2.conv.weight.data
dmf.omega.data[...] = (1.0, 0.0, 0.0)
x = rng.standard_normal((1, 16, 6, 6, 6)).astype(np.float32)
print("omega=(1,0,0) DMF forward == weight-copied MF forward:",
      np.array_equal(dmf.forward(x, mode="eval"), mf2.forward(x, mode="eval")))
