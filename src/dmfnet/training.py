"""Adam optimization with coupled L2 regularization, the training loop and
branch-weight trajectory logging.

The loop per step: augment -> forward (train mode) -> softmax -> generalized
dice loss -> backward -> adam_step. Deterministic given (config seed,
single-worker mode). Branch weights omega are snapshotted for every dilated
unit once per epoch so their trajectories can be exported and plotted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import data as dio
from .errors import ConfigError, DataError, GradientError, TrainingDiverged, hold_floats
from .losses import REGIONS, dice_region, generalized_dice_loss
from .network import segment


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 1
    epochs: int = 10
    lr: float = 0.001
    weight_decay: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr_schedule: str = "constant"  # constant | poly
    poly_power: float = 0.9
    seed: int = 0

    def __post_init__(self):
        hold_floats(self)
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (0 <= self.lr < np.inf and 0 <= self.weight_decay < np.inf):
            raise ConfigError("lr and weight_decay must be finite and non-negative, "
                              f"got {self.lr} and {self.weight_decay}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("beta1 and beta2 must lie in [0, 1), "
                              f"got {self.beta1} and {self.beta2}")
        if not (0 < self.eps < np.inf and self.poly_power >= 0):
            raise ConfigError("eps must be finite and positive and poly_power non-negative, "
                              f"got {self.eps} and {self.poly_power}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.lr_schedule not in ("constant", "poly"):
            raise ConfigError(f"lr_schedule must be 'constant' or 'poly', got {self.lr_schedule!r}")

    def lr_at(self, step, total_steps):
        if self.lr_schedule == "constant":
            return self.lr
        frac = min(step / max(total_steps, 1), 1.0)
        return self.lr * (1.0 - frac) ** self.poly_power


class AdamState:
    """First/second moment estimates plus the shared step counter."""

    def __init__(self, params):
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}


def adam_step(params, grads, state, cfg, lr=None):
    """One Adam update with bias correction, in place.

    Coupled L2: weight_decay * theta is added to the gradient before the
    moment update. Parameters flagged decay=False (the branch weights omega)
    are exempt; decaying them would bias branch mixing toward zero.

    The update is ``theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``; the
    gradients in ``grads`` are never written. A non-finite gradient, or an
    update that leaves a weight non-finite (a huge lr or weight_decay), is a
    GradientError naming the parameter and the step.
    """
    lr = cfg.lr if lr is None else lr
    state.t += 1
    t = state.t
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for p in params:
        if not p.trainable:
            continue
        g = grads[p.name]
        if not np.isfinite(g).all():
            raise GradientError(f"non-finite gradient for {p.name!r} at step {t}")
        m = state.m[p.name]
        v = state.v[p.name]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is checked below
            if cfg.weight_decay and p.decay:
                g = g + cfg.weight_decay * p.data
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        if not np.isfinite(p.data).all():
            raise GradientError(f"the update left non-finite weights in {p.name!r} at step {t}")


@dataclass
class TrainLog:
    """Per-step losses and per-epoch omega snapshots."""

    steps: list = field(default_factory=list)
    omega: list = field(default_factory=list)

    @property
    def losses(self):
        return [rec["loss"] for rec in self.steps]

    def save_jsonl(self, path):
        dio.write_jsonl(path, [{"record": "step", **rec} for rec in self.steps]
                        + [{"record": "omega", **rec} for rec in self.omega])

    def save_omega_csv(self, path):
        """Branch-weight trajectories, one row per (epoch, unit) and one
        column w1..wk per dilation rate."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = list(self.omega[0]) if self.omega else ["epoch", "unit"]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for rec in self.omega:
                values = [str(rec["epoch"]), rec["unit"]] + [repr(rec[c]) for c in cols[2:]]
                fh.write(",".join(values) + "\n")


def _snapshot_omega(net, epoch, log):
    for name, omega in net.omega_parameters():
        log.omega.append({"epoch": epoch, "unit": name,
                          **{f"w{i + 1}": float(w) for i, w in enumerate(omega.data)}})


def train_step(net, params, x, labels, state, cfg, lr):
    """One optimization step of ``params`` (net.parameters()) on a prepared
    batch; returns the loss."""
    _, tape = ag.forward_record(net, x, mode="train")
    probs = ag.t_softmax_channels(tape, tape.output_var)
    tape.output_var = generalized_dice_loss(probs, labels, tape=tape)
    loss = float(tape.output_var.data)
    if np.isfinite(loss):
        _, grads = ag.backward(tape, np.ones_like(tape.output_var.data))
        adam_step(params, grads, state, cfg, lr=lr)
    return loss


def train(net, dataset, cfg, aug_cfg=None):
    """Optimize `net` on a list of (volume (4,d,h,w), labels (d,h,w)) cases.

    Volumes are assumed normalized. When `aug_cfg` is given every sample is
    cropped/flipped/rotated/jittered first; otherwise cases are used as-is and,
    for batches over 1, must share one shape (DataError before the first step).
    A batch_size larger than the dataset is a ConfigError.
    Halts with the step index and last finite loss if the loss leaves the
    finite range.
    """
    if not dataset:
        raise ConfigError("dataset is empty")
    if cfg.batch_size > len(dataset):
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds the {len(dataset)} case(s)")
    shapes = sorted({vol.shape for vol, _ in dataset})
    if aug_cfg is None and cfg.batch_size > 1 and len(shapes) > 1:
        raise DataError(f"batch_size {cfg.batch_size} without augmentation needs cases of "
                        f"one shape, got {', '.join(map(str, shapes))}")
    params = net.parameters()
    state = AdamState(params)
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    steps_per_epoch = len(dataset) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    last_finite = None
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        for b in range(steps_per_epoch):
            picks = [dataset[i] for i in order[b * cfg.batch_size:(b + 1) * cfg.batch_size]]
            vols = []
            labs = []
            for vol, lab in picks:
                if aug_cfg is not None:
                    vol, lab = dio.augment(vol, lab, aug_cfg, rng)
                vols.append(vol)
                labs.append(lab)
            x = np.stack(vols).astype(net.dtype, copy=False)
            y = np.stack(labs)
            # the batch is held once, in x and y
            del vols, labs, vol, lab
            lr = cfg.lr_at(step, total_steps)
            loss = train_step(net, params, x, y, state, cfg, lr)
            if not np.isfinite(loss):
                raise TrainingDiverged(step, last_finite)
            last_finite = loss
            log.steps.append({"step": step, "epoch": epoch, "loss": loss, "lr": lr})
            step += 1
        _snapshot_omega(net, epoch, log)
    return log


def evaluate(net, dataset, case_ids=None):
    """Per-case and mean dice (ET/WT/TC) for (volume, labels) pairs.

    Returns (records, means); records follow the metrics file schema.
    """
    records = []
    for i, (vol, lab) in enumerate(dataset):
        case_id = case_ids[i] if case_ids is not None else f"case{i:03d}"
        pred = segment(net, vol[None].astype(net.dtype))[0]
        rec = {"case_id": str(case_id)}
        for region in REGIONS:
            rec[f"dice_{region.name.lower()}"] = dice_region(pred, lab, region)
        records.append(rec)
    keys = [f"dice_{r.name.lower()}" for r in REGIONS]
    means = {k: float(np.mean([rec[k] for rec in records])) for k in keys}
    return records, means
