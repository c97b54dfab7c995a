#!/usr/bin/env python3
"""Case files, brain-masked normalization and the four-step training-time
augmentation: random crop, mirror flips, small rotations, intensity jitter.

All randomness flows through explicit numpy Generators, so a (config, seed)
pair pins the whole pipeline.
"""

import tempfile
from pathlib import Path

import numpy as np

from dmfnet import data as dio

rng = np.random.default_rng(3)

# a fake 4-modality case with a zero background and a bright blob
vol = np.zeros((4, 40, 40, 40), dtype=np.float32)
vol[:, 8:32, 8:32, 8:32] = 100.0 + 20.0 * rng.standard_normal((4, 24, 24, 24)).astype(np.float32)
lab = np.zeros((40, 40, 40), dtype=np.uint8)
lab[14:26, 14:26, 14:26] = 2
lab[18:22, 18:22, 18:22] = 4

workdir = Path(tempfile.mkdtemp())
dio.save_case(workdir / "case0", vol, lab)
print("case files:", sorted(p.name for p in (workdir / "case0").iterdir()))

vol2, lab2 = dio.load_case(workdir / "case0")
print("round trip bit-exact:", np.array_equal(vol, vol2) and np.array_equal(lab, lab2))

# z-score over nonzero (brain) voxels only; background stays zero
norm = dio.normalize(vol2)
brain = norm[0][vol2[0] != 0]
print(f"\nnormalized brain voxels: mean {brain.mean():+.5f}, std {brain.std():.4f}")
print("background still zero:", float(np.abs(norm[0][vol2[0] == 0]).max()) == 0.0)

# the augmentation recipe: the crop size is a config key, the rest are constants
cfg = dio.AugmentConfig(crop_size=(32, 32, 32))
print(f"\nrecipe: crop {cfg.crop_size}, flip prob {cfg.flip_prob}, rotate {cfg.rotate_degrees} "
      f"deg, shift {cfg.intensity_shift} sigma, scale {cfg.intensity_scale}")
seed = 0
aug_v, aug_l = dio.augment(norm, lab2, cfg, np.random.default_rng(seed))
print("\naugmented:", aug_v.shape, "labels", sorted(np.unique(aug_l).tolist()))

again_v, again_l = dio.augment(norm, lab2, cfg, np.random.default_rng(seed))
print("same seed reproduces the sample:",
      np.array_equal(aug_v, again_v) and np.array_equal(aug_l, again_l))

other_v, _ = dio.augment(norm, lab2, cfg, np.random.default_rng(seed + 1))
print("different seed gives a different sample:", not np.array_equal(aug_v, other_v))
