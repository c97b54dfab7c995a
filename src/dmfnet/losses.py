"""Generalized dice loss for training and the three BraTS region dice
scores (ET / WT / TC) for evaluation.

Label volumes carry values from {0, 1, 2, 4}: background, necrotic and
non-enhancing tumor, peritumoral edema, GD-enhancing tumor. Class channel i
corresponds to label CLASS_LABELS[i].

Note on the ET region: the evaluation sections of the source literature are
inconsistent about whether the enhancing-tumor region is label 4 (its label
definition) or label 1 (one metric listing). We follow the BraTS convention
ET = {4}; pass ``et_labels={1}`` to region_specs() for the literal
alternative reading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .autograd import _data, _record
from .errors import DataError, ShapeError
from .network import CLASS_LABELS

GDL_EPS = 1e-5


@dataclass(frozen=True)
class RegionSpec:
    name: str
    labels: frozenset


def region_specs(et_labels=frozenset({4})):
    """The three evaluation regions. WT and TC are fixed; ET is configurable."""
    return (
        RegionSpec("ET", frozenset(et_labels)),
        RegionSpec("WT", frozenset({1, 2, 4})),
        RegionSpec("TC", frozenset({1, 4})),
    )


REGIONS = region_specs()


def _member(labels, values):
    """Elementwise ``labels in values``, one comparison per value."""
    out = np.zeros(labels.shape, dtype=bool)
    for v in values:
        out |= labels == v
    return out


def check_labels(labels, name="labels"):
    labels = np.asarray(labels)
    legal = _member(labels, CLASS_LABELS)
    if not legal.all():
        bad = np.unique(labels[~legal])
        raise DataError(f"{name} contains illegal values {bad.tolist()}; legal: {CLASS_LABELS}")
    return labels


def one_hot(target, dtype=np.float32):
    """Label volume (n, d, h, w) -> one-hot (n, len(CLASS_LABELS), d, h, w):
    channel i is ``target == CLASS_LABELS[i]``, cast to ``dtype``."""
    target = check_labels(target, "target")
    if target.ndim != 4:
        raise ShapeError(f"target must be rank-4 (n, d, h, w), got shape {target.shape}")
    labels = np.array(CLASS_LABELS).reshape(1, -1, 1, 1, 1)
    return (target[:, None] == labels).astype(dtype)


def _gdl_terms(p, r, eps):
    axes = (0, 2, 3, 4)
    r_sum = r.sum(axis=axes)
    w = 1.0 / (r_sum * r_sum + eps)
    inter = (r * p).sum(axis=axes)
    p_sum = p.sum(axis=axes)
    num = (w * inter).sum()
    den = (w * (r_sum + p_sum)).sum() + eps
    return w, num, den


def generalized_dice_loss(probs, target, tape=None):
    """GDL = 1 - 2 * sum_c w_c <r_c, p_c> / sum_c w_c (|r_c| + |p_c|).

    Class weights w_c = 1/|r_c|^2, stabilized by ``GDL_EPS`` in both the weight
    denominator and the outer denominator, so crops lacking a class stay
    well-defined. ``probs`` must be softmax outputs; ``target`` a label
    volume. Differentiable through probs when recorded on a tape.
    """
    p = ops.check_volume5d(_data(probs), "probs")
    if p.shape[1] != len(CLASS_LABELS):
        raise ShapeError(f"probs have {p.shape[1]} channels, expected {len(CLASS_LABELS)} classes")
    if p.shape[2:] != np.asarray(target).shape[1:] or p.shape[0] != np.asarray(target).shape[0]:
        raise ShapeError(f"probs shape {p.shape} does not match target {np.asarray(target).shape}")
    sums = p.sum(axis=1)
    # catches a missing softmax; NaN sums deliberately fall through so the
    # trainer sees a non-finite loss and halts with its step diagnostics
    if np.abs(sums - 1.0).max() > 1e-3:
        raise ShapeError("probs do not sum to 1 over channels; apply softmax_channels first")
    r = one_hot(target, dtype=p.dtype)

    w, num, den = _gdl_terms(p, r, GDL_EPS)
    data = np.asarray(1.0 - 2.0 * num / den, dtype=p.dtype)

    def bwd(g):
        # d/dp_cn [1 - 2 num/den] = w_c (-2/den^2) (r_cn den - num)
        return (g * w.reshape(1, -1, 1, 1, 1) * (-2.0 / (den * den)) * (r * den - num),)

    out = _record(tape, data, "generalized_dice_loss", (probs,), bwd)
    return float(out) if tape is None else out


def dice_region(pred, gt, region):
    """Region dice: 2|A n B| / (|A| + |B|) on binarized label volumes.

    Both masks empty -> 1.0 (BraTS convention); exactly one empty -> 0.0.
    """
    pred = check_labels(pred, "pred")
    gt = check_labels(gt, "gt")
    if pred.shape != gt.shape:
        raise ShapeError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    a = _member(pred, region.labels)
    b = _member(gt, region.labels)
    total = int(np.count_nonzero(a)) + int(np.count_nonzero(b))
    if total == 0:
        return 1.0
    return 2.0 * int(np.count_nonzero(a & b)) / total
