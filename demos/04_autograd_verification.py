#!/usr/bin/env python3
"""Reverse-mode differentiation on tape, verified against central finite
differences.

Every op records itself on a GradTape during the forward pass; backward()
walks the tape in reverse. The finite-difference checker perturbs sampled
parameter and input scalars by +-h at 64-bit and compares (L+ - L-)/2h with
the analytic gradient, masking probes that push a ReLU input across its
kink.
"""

import numpy as np

from dmfnet import autograd as ag, blocks

rng = np.random.default_rng(0)

# --- record and differentiate a dilated unit --------------------------------
unit = blocks.DMFUnit("dmf", blocks.DMFUnitConfig(8, 8, 8, g=2), rng, np.float64)
x = rng.standard_normal((1, 8, 6, 6, 6))
out, tape = ag.forward_record(unit, x, mode="train")
print("recorded", len(tape.nodes), "tape nodes; output", out.shape)

grad_in, grads = ag.backward(tape, np.ones_like(out))
print("gradients for", len(grads), "parameter tensors")
print("omega gradient (inner products of branch outputs with the upstream):",
      grads["dmf.omega"].round(3))

# tapes are single-use
try:
    ag.backward(tape, np.ones_like(out))
except Exception as e:
    print("second backward:", type(e).__name__, "-", e)

# --- verify against finite differences --------------------------------------
report = ag.finite_diff_check(unit, x, tolerance=1e-5, step=1e-5,
                              max_per_tensor=20, rng=1)
print("\n" + str(report))
print("\nall tensors pass:", report.passed)
