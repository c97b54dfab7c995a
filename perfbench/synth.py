"""Synthetic BraTS-like cases made from a seed.

A case is a 4-channel volume (t1, t1ce, t2, flair) that is exactly zero
outside an ellipsoidal brain, with one tumour inside it: an edema blob
(label 2) around an enhancing shell (label 4) around a necrotic core
(label 1). Each region shifts each modality's intensity by its own factor,
so the case looks to the network like a small multi-modal scan.
"""

from __future__ import annotations

import numpy as np

# intensity factor per modality (rows) for labels 0, 1, 2, 4 (columns)
CONTRAST = np.array([
    [1.0, 0.6, 0.8, 0.9],   # t1
    [1.0, 0.5, 0.9, 1.8],   # t1ce
    [1.0, 1.6, 1.5, 1.2],   # t2
    [1.0, 1.2, 1.8, 1.3],   # flair
], dtype=np.float32)
LABELS = (0, 1, 2, 4)


def synth_case(shape, rng):
    """(volume (4, d, h, w) float32, labels (d, h, w) uint8) drawn from rng."""
    axes = [np.linspace(-1.0, 1.0, n, dtype=np.float32) for n in shape]
    z, y, x = np.meshgrid(*axes, indexing="ij", sparse=True)

    radii = rng.uniform(0.75, 0.92, size=3).astype(np.float32)
    centre = rng.uniform(-0.04, 0.04, size=3).astype(np.float32)
    brain = ((z - centre[0]) / radii[0]) ** 2 + ((y - centre[1]) / radii[1]) ** 2 \
        + ((x - centre[2]) / radii[2]) ** 2 <= 1.0

    # tumour centre well inside the brain, radius 18-30% of the volume
    tc = centre + rng.uniform(-0.35, 0.35, size=3).astype(np.float32) * radii
    tr = rng.uniform(0.18, 0.30, size=3).astype(np.float32)
    freq = rng.uniform(2.0, 5.0, size=3).astype(np.float32)
    phase = rng.uniform(0.0, 2 * np.pi, size=3).astype(np.float32)
    dist = np.sqrt(((z - tc[0]) / tr[0]) ** 2 + ((y - tc[1]) / tr[1]) ** 2
                   + ((x - tc[2]) / tr[2]) ** 2)
    # a lumpy rather than an ellipsoidal outline
    dist = dist * (1.0 + 0.12 * np.sin(freq[0] * z + phase[0])
                   * np.sin(freq[1] * y + phase[1]) * np.sin(freq[2] * x + phase[2]))

    labels = np.zeros(shape, dtype=np.uint8)
    labels[dist <= 1.0] = 2
    labels[dist <= 0.6] = 4
    labels[dist <= 0.35] = 1
    labels[~brain] = 0

    cls = np.searchsorted(np.asarray(LABELS), labels)
    volume = CONTRAST[:, cls]
    volume += rng.standard_normal(volume.shape, dtype=np.float32) * np.float32(0.08)
    np.maximum(volume, np.float32(0.05), out=volume)
    volume *= brain
    return volume, labels
