"""One benchmark workload in one process: set up, time a closed loop of ops,
check every output and report the metrics.

Started by ``run.py``, which pins the BLAS thread count in this process's
environment and puts the checkout's ``src/`` on the import path. One caller
runs the ops back to back: the next op starts when the previous one ends.

With ``--trace 0`` the run reports the end-to-end metrics, with no wrapper
installed. With ``--trace 1`` it times half of the run untraced and half
with every public layer function wrapped (see ``spans.py``), and reports
the per-layer metrics, the tracing overhead and the MAC self-check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dmfnet
from dmfnet import analysis, data, losses, network, ops, training
from dmfnet import autograd as ag

import sgemm
import spans
import synth
from reference import Reference
from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

AGREE_MIN = 0.999          # least share of outputs equal to the float64 reference
LOSS_ATOL = 1e-5           # float32 vs float64 loss of the replayed train step
FD_STEP = 1e-8             # central-difference step along a N(0, 1) direction
FD_RTOL = 1e-2             # float32 gradient vs float64 central difference, of |g|
REPLAY_STEP = 1            # the train step replayed in float64: the first timed one
LOSS_STEPS = 3             # timed train steps whose mean loss is loss_end
SETUP_REPEATS = 2          # set-up samples at each end of a run; the best counts
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10           # samples that must lie beyond the tail percentile
VALID_LABELS = frozenset(network.CLASS_LABELS)

# (name, unit, better); the order is the order of BENCHMARK.json.
# The op time is read against the reference timed next to it (see
# reference.py): on a shared host the speed drifts by up to 1.5x, which
# moves raw op times from run to run by more than any bound allows. The raw
# median, best and tail are reported beside the metrics, in the out file
# and on stdout.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_over_ref", "ratio", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ok_ratio", "ratio", "higher"),
    ("loss_end", "loss", "lower"),
    ("f64_agree", "ratio", "higher"),
)

CONV_OPS = ("conv3d", "conv3d_input_grad", "conv3d_weight_grad")
UPSAMPLE_OPS = ("trilinear_upsample", "trilinear_upsample_grad")
PLAIN_OPS = ("batch_norm", "batch_norm_stats", "batch_norm_apply", "relu", "add",
             "concat_channels", "softmax_channels")
BLOCKS = ("MFUnit", "DMFUnit", "Multiplexer")
PHASES = ("augment", "forward", "backward", "update")


def _per_layer_names():
    out = []
    for op in CONV_OPS:
        for k in ("k3", "k1"):
            out += [(f"ops.{op}.{k}.calls", "count"), (f"ops.{op}.{k}.s", "s"),
                    (f"ops.{op}.{k}.gmacs", "GMAC/s"), (f"ops.{op}.{k}.ceiling_frac", "ratio")]
    for op in UPSAMPLE_OPS:
        out += [(f"ops.{op}.calls", "count"), (f"ops.{op}.s", "s"),
                (f"ops.{op}.mib", "MiB_computed")]
    out += [(f"ops.{op}.s", "s") for op in PLAIN_OPS]
    for name in ("autograd.backward", "autograd.record"):
        out += [(f"{name}.s", "s"), (f"{name}.self_s", "s")]
    out += [("autograd.tape.nodes", "count"), ("autograd.tape.mib", "MiB")]
    for b in BLOCKS:
        out += [(f"blocks.{b}.forward.s", "s"), (f"blocks.{b}.forward.self_s", "s")]
    out += [(f"{name}.s", "s") for name in (
        "network.forward", "network.predict_labels", "losses.generalized_dice_loss",
        "losses.dice_region", "data.load_case", "data.normalize", "data.load_params",
        "data.augment", "training.train_step", "training.adam_step")]
    out += [(f"training.phase.{p}_frac", "ratio") for p in PHASES]
    out += [("trace.overhead_frac", "ratio"), ("blas.sgemm_gmacs", "GMAC/s"),
            ("blas.sgemm_gmacs_1t", "GMAC/s")]
    out += [(f"{name}.errors", "count") for name in spans.SPAN_NAMES]
    return tuple(out)


PER_LAYER = _per_layer_names()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def state(net):
    """The arrays of ``net.state_items()``: parameters, then running statistics."""
    return [a for _, a in net.state_items()]


def float64_net(cfg, arrays):
    """A float64 network of ``cfg`` that holds ``arrays``, as ``state`` gives them."""
    net64 = network.build_network(cfg, dtype=np.float64)
    for dst, src in zip(state(net64), arrays):
        dst[...] = src
    return net64


def gradients(net, x, labels):
    """Parameter gradients of the generalized dice loss, taken the way
    ``training.train_step`` takes them."""
    tape = ag.GradTape()
    tape.input_var = tape.leaf(x.astype(net.dtype))
    logits = net.forward(tape.input_var, mode="train", tape=tape)
    probs = ag.t_softmax_channels(tape, logits)
    tape.output_var = losses.generalized_dice_loss(probs, labels, tape=tape)
    return ag.backward(tape, np.ones_like(tape.output_var.data))[1]


class InferWorkload:
    """``dmfnet evaluate`` on one case: load, normalize, forward, labels, dice."""

    def __init__(self, arch, shape, seed, workdir):
        cfg = network.ARCH_PRESETS[arch]()
        ckpt = workdir / "model.ckpt"
        data.save_params(network.build_network(cfg, seed=seed), ckpt)
        self.net = network.build_network(cfg, seed=seed + 1)
        data.load_params(self.net, ckpt)
        volume, labels = synth.synth_case(shape, np.random.default_rng([seed, 1]))
        self.case_dir = workdir / "case"
        data.save_case(self.case_dir, volume, labels)
        self.shape = tuple(shape)
        self.input_shape = (1, cfg.input_channels) + self.shape
        self.regions = losses.region_specs()

    def op(self, i):
        volume, labels = data.load_case(self.case_dir)
        volume = data.normalize(volume)
        logits = self.net.forward(volume[None].astype(self.net.dtype), mode="eval")
        pred = network.predict_labels(logits)[0]
        return pred, [losses.dice_region(pred, labels, r) for r in self.regions]

    def check(self, out):
        pred, dice = out
        return (pred.shape == self.shape and pred.dtype == np.uint8
                and set(np.unique(pred).tolist()) <= VALID_LABELS
                and all(0.0 <= d <= 1.0 for d in dice))

    def quality(self, outputs, ok):
        """(metrics, problems, details) from the float64 reference.

        f64_agree is the mean share of voxels whose label equals that of a
        float64 forward of the same weights and case; an op below AGREE_MIN
        fails. loss_end is the region dice loss of the op's labels,
        1 - mean(ET, WT, TC dice), since an eval op has no training loss.
        """
        volume, _ = data.load_case(self.case_dir)
        x = data.normalize(volume)[None]
        net64 = float64_net(self.net.cfg, state(self.net))
        ref = network.predict_labels(net64.forward(x.astype(np.float64)))[0]
        agree, dice_loss = [], []
        for k, out in enumerate(outputs):
            if not ok[k]:
                continue
            pred, dice = out
            agree.append(float(np.mean(pred == ref)))
            dice_loss.append(1.0 - float(np.mean(dice)))
            ok[k] = agree[-1] >= AGREE_MIN
        metrics = {"loss_end": _mean(dice_loss), "f64_agree": _mean(agree)}
        problems = [] if metrics["f64_agree"] >= AGREE_MIN else [
            f"f64_agree {metrics['f64_agree']} < {AGREE_MIN}"]
        return metrics, problems, {}


class TrainWorkload:
    """One ``training.train`` step per op: augment a crop, forward, GDL, backward, Adam."""

    def __init__(self, arch, shape, crop, n_cases, seed):
        cfg = network.ARCH_PRESETS[arch]()
        self.net = network.build_network(cfg, seed=seed)
        self.cases = []
        for k in range(n_cases):
            volume, labels = synth.synth_case(shape, np.random.default_rng([seed, 2, k]))
            self.cases.append((data.normalize(volume), labels))
        self.aug = data.AugmentConfig(crop_size=(crop,) * 3)
        self.seed = seed
        self.input_shape = (1, cfg.input_channels) + (crop,) * 3
        self.loss_by_step = {}
        self.state_after = {}    # step -> a copy of state(self.net) after it

    def _step_args(self, i):
        """(dataset, TrainConfig) of step ``i``: one case, a seed of its own."""
        cfg = training.TrainConfig(epochs=1, batch_size=1, seed=self.seed * 100_003 + i)
        return [self.cases[i % len(self.cases)]], cfg

    def op(self, i):
        log = training.train(self.net, *self._step_args(i), self.aug)
        self.loss_by_step[i] = log.losses[0]
        return i, log.losses[0]

    def check(self, out):
        """The loss is finite and in [0, 1]. Around the replayed step, the
        weights are also kept for ``quality``, outside the timed op."""
        i, loss = out
        if i in (REPLAY_STEP - 1, REPLAY_STEP):
            self.state_after[i] = [a.copy() for a in state(self.net)]
        return bool(np.isfinite(loss)) and 0.0 <= loss <= 1.0

    def quality(self, outputs, ok):
        """(metrics, problems, details) from two float64 checks.

        The replay: step REPLAY_STEP runs again, from the same weights and
        with the same seed, on a float64 copy of the net. Its loss must be
        within LOSS_ATOL of the timed float32 step's, and f64_agree is the
        share of parameter elements whose float32 update is within lr / 2
        of the float64 update. A first Adam step moves an element by about
        lr wherever its gradient is well above Adam's eps, so there a
        gradient of the wrong sign, or a zero one, is a disagreement. Below
        AGREE_MIN the replayed op fails.

        The gradients: on one augmented crop, a fresh float32 net's gradient
        g along a random direction v must match a float64 central difference
        of the loss along v to within FD_RTOL |g|. This checks backward
        against forward alone, so it catches a wrong gradient that is wrong
        in float64 too, or wrong by a factor, which an Adam update hides.

        loss_end is the mean loss of steps 1..LOSS_STEPS (step 0 is the
        warm-up): fixed steps of a fixed seed, so it repeats exactly while
        the arithmetic does.
        """
        problems = []
        step_losses = [self.loss_by_step.get(s, np.nan) for s in range(1, LOSS_STEPS + 1)]
        agree, gap = 0.0, float("nan")
        k = REPLAY_STEP - 1          # timed ops start at step 1
        replayable = ok[k] and REPLAY_STEP - 1 in self.state_after
        if replayable:
            agree, gap = self._replay(outputs[k][1])
        ok[k] = replayable and agree >= AGREE_MIN and gap <= LOSS_ATOL
        if not ok[k]:
            problems.append(f"step {REPLAY_STEP} does not match its float64 replay: "
                            f"f64_agree {agree}, loss gap {gap}")
        details = {"replay_loss_gap": gap}
        details["gradient_error"] = self._gradient_error()
        if not details["gradient_error"] <= FD_RTOL:
            problems.append(f"float32 gradient is off a float64 central difference by "
                            f"{details['gradient_error']} |g| > {FD_RTOL} |g|")
        return {"loss_end": float(np.mean(step_losses)), "f64_agree": agree}, problems, details

    def _replay(self, loss32):
        """(f64_agree, |loss32 - loss64|) of REPLAY_STEP against float64."""
        net64 = float64_net(self.net.cfg, self.state_after[REPLAY_STEP - 1])
        dataset, cfg = self._step_args(REPLAY_STEP)
        loss64 = training.train(net64, dataset, cfg, self.aug).losses[0]
        pre, post = self.state_after[REPLAY_STEP - 1], self.state_after[REPLAY_STEP]
        agreeing = total = 0
        for p64, w0, w32 in zip(net64.parameters(), pre, post):
            diff = np.abs((w32 - w0).astype(np.float64) - (p64.data - w0))
            agreeing += int(np.count_nonzero(diff <= cfg.lr / 2))
            total += diff.size
        return agreeing / total, abs(loss32 - loss64)

    def _gradient_error(self):
        """|<g, v> - (L(w + hv) - L(w - hv)) / 2h| / |g| on one crop."""
        net = network.build_network(self.net.cfg, seed=self.seed + 1)
        # an untrained net's softmax can saturate, leaving every gradient
        # near 0 and nothing to check; smaller logits keep them large
        for p in net.classifier.parameters():
            p.data *= 0.1
        volume, labels = data.augment(*self.cases[0], self.aug,
                                      np.random.default_rng([self.seed, 3]))
        x, y = volume[None], labels[None]
        g = gradients(net, x, y)
        net64 = float64_net(net.cfg, state(net))
        params = net64.parameters()
        rng = np.random.default_rng([self.seed, 4])
        direction = [rng.standard_normal(p.data.shape) for p in params]
        start = [p.data.copy() for p in params]
        loss = []
        for sign in (1, -1):
            for p, w, v in zip(params, start, direction):
                p.data[...] = w + sign * FD_STEP * v
            logits = net64.forward(x.astype(np.float64), mode="train")
            loss.append(losses.generalized_dice_loss(ops.softmax_channels(logits), y))
        slope = (loss[0] - loss[1]) / (2 * FD_STEP)
        grad = [g[p.name].astype(np.float64) for p in params]
        dot = sum(float(np.vdot(gp, v)) for gp, v in zip(grad, direction))
        norm = np.sqrt(sum(float(np.vdot(gp, gp)) for gp in grad))
        return abs(dot - slope) / norm if norm else float("inf")


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str
    arch: str
    shape: tuple
    min_ops: int              # timed ops a run makes even past --seconds
    crop: int = 0
    cases: int = 0

    def build(self, seed, workdir):
        if self.kind == "infer":
            return InferWorkload(self.arch, self.shape, seed, workdir)
        return TrainWorkload(self.arch, self.shape, self.crop, self.cases, seed)


WORKLOADS = {
    "infer-dmfnet-128": WorkloadSpec("infer", "dmfnet", (128, 128, 128), min_ops=2),
    "train-dmfnet-64": WorkloadSpec("train", "dmfnet", (80, 80, 80), min_ops=3, crop=64, cases=2),
    "train-toy-32": WorkloadSpec("train", "toy", (40, 40, 40), min_ops=20, crop=32, cases=2),
}


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """Ops of one timed loop, in order, and the reference times around them:
    ``ref_s[k]`` is taken right before op ``k`` and ``ref_s[k + 1]`` right
    after it."""

    first: int
    durations: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    ok: list = field(default_factory=list)

    @property
    def ids(self):
        return range(self.first, self.first + len(self.durations))

    @property
    def ratios(self):
        """Each op's seconds over the mean of the reference times around it."""
        return [d / ((a + b) / 2) for d, a, b in zip(self.durations, self.ref_s, self.ref_s[1:])]


def timed_loop(wl, seconds, min_ops, first, reference, tracer=None):
    """Closed loop: ops back to back for ``seconds`` and at least ``min_ops``,
    with a reference sample taken before the first op and after each."""
    phase = Phase(first)
    start = time.perf_counter()
    phase.ref_s.append(reference())
    i = first
    while time.perf_counter() - start < seconds or len(phase.durations) < min_ops:
        if tracer is not None:
            tracer.op = i
        t = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception:
            traceback.print_exc()
            out = None
        phase.durations.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.op = None
        phase.ref_s.append(reference())
        try:
            ok = out is not None and bool(wl.check(out))
        except Exception:
            traceback.print_exc()
            ok = False
        phase.outputs.append(out)
        phase.ok.append(ok)
        i += 1
    return phase


def tail_percentile(samples):
    """(label, value): the highest percentile of TAIL_LADDER with at least
    TAIL_BEYOND samples beyond it, or the max when there are too few."""
    samples = np.asarray(samples, dtype=np.float64)
    for p in TAIL_LADDER:
        value = float(np.percentile(samples, p))
        if np.count_nonzero(samples > value) >= TAIL_BEYOND:
            return f"p{p:g}", value
    return "max", float(samples.max())


def _mean(values):
    return float(np.mean(values)) if values else float("nan")


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_rev():
    """HEAD of the checkout's own .git, read directly; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def sgemm_ceilings():
    """(GMAC/s at the pinned thread count, GMAC/s on one thread)."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    one = subprocess.run([sys.executable, str(HERE / "sgemm.py")], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return sgemm.sgemm_gmacs(), float(one.stdout.strip())


def environment(seed, ceilings):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "sgemm_gmacs": ceilings[0],
        "sgemm_gmacs_1t": ceilings[1],
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer, phase, untraced_ratio, ceilings):
    """Per-layer numbers over the traced ops; ``s`` means seconds per op."""
    selfs = spans.self_times(tracer.spans)
    ids = set(phase.ids)
    n = len(ids)
    calls, secs, self_s, macs, nbytes = {}, {}, {}, {}, {}
    tape_nodes, tape_bytes, load_params = [], [], []
    for s, own in zip(tracer.spans, selfs):
        if s.name == "data.load_params":
            load_params.append(s.end - s.start)
        if s.op not in ids:
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        secs[s.name] = secs.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        work = s.work or {}
        macs[s.name] = macs.get(s.name, 0) + work.get("macs", 0)
        nbytes[s.name] = nbytes.get(s.name, 0) + work.get("bytes", 0)
        if s.name == "autograd.backward":
            tape_nodes.append(work["nodes"])
            tape_bytes.append(work["bytes"])

    m = {}
    for op in CONV_OPS:
        for k in ("k3", "k1"):
            name = f"ops.{op}.{k}"
            t = secs.get(name, 0.0)
            rate = macs.get(name, 0) / t / 1e9 if t else 0.0
            m[f"{name}.calls"] = calls.get(name, 0) / n
            m[f"{name}.s"] = t / n
            m[f"{name}.gmacs"] = rate
            m[f"{name}.ceiling_frac"] = rate / ceilings[0]
    for op in UPSAMPLE_OPS:
        name = f"ops.{op}"
        m[f"{name}.calls"] = calls.get(name, 0) / n
        m[f"{name}.s"] = secs.get(name, 0.0) / n
        m[f"{name}.mib"] = nbytes.get(name, 0) / n / 2**20
    for op in PLAIN_OPS:
        m[f"ops.{op}.s"] = secs.get(f"ops.{op}", 0.0) / n
    for name in ("autograd.backward", "autograd.record"):
        m[f"{name}.s"] = secs.get(name, 0.0) / n
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    m["autograd.tape.nodes"] = _mean(tape_nodes) if tape_nodes else 0.0
    m["autograd.tape.mib"] = _mean(tape_bytes) / 2**20 if tape_bytes else 0.0
    for b in BLOCKS:
        name = f"blocks.{b}.forward"
        m[f"{name}.s"] = secs.get(name, 0.0) / n
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    for name in ("network.forward", "network.predict_labels", "losses.generalized_dice_loss",
                 "losses.dice_region", "data.load_case", "data.normalize", "data.augment",
                 "training.train_step", "training.adam_step"):
        m[f"{name}.s"] = secs.get(name, 0.0) / n
    # load_params runs in set-up only: seconds per call
    m["data.load_params.s"] = _mean(load_params) if load_params else 0.0

    total = sum(phase.durations)
    backward = secs.get("autograd.backward", 0.0)
    update = secs.get("training.adam_step", 0.0)
    step = secs.get("training.train_step", 0.0)
    m["training.phase.augment_frac"] = secs.get("data.augment", 0.0) / total
    m["training.phase.forward_frac"] = (step - backward - update) / total if step else 0.0
    m["training.phase.backward_frac"] = backward / total
    m["training.phase.update_frac"] = update / total
    m["trace.overhead_frac"] = statistics.median(phase.ratios) / untraced_ratio - 1.0
    m["blas.sgemm_gmacs"], m["blas.sgemm_gmacs_1t"] = ceilings
    for name in spans.SPAN_NAMES:
        m[f"{name}.errors"] = tracer.errors[name]
    return m


def mac_check(tracer, phase, wl):
    """Problems found joining traced conv MACs to ``analysis.count_flops``.

    Every traced op's forward conv MACs must equal the accounting at the
    op's input shape; a train op's input-grad and weight-grad MACs too.
    """
    expected = analysis.count_flops(wl.net, wl.input_shape).total_flops
    kinds = CONV_OPS if isinstance(wl, TrainWorkload) else CONV_OPS[:1]
    got = {(i, k): 0 for i in phase.ids for k in kinds}
    for s in tracer.spans:
        kind = s.name.split(".")[1] if s.name.startswith("ops.conv3d") else None
        if (s.op, kind) in got:
            got[(s.op, kind)] += (s.work or {}).get("macs", 0)
    return [f"op {i} {kind}: {value} MACs traced, count_flops gives {expected}"
            for (i, kind), value in got.items() if value != expected]


def layer_table(metrics):
    lines = [f"{'metric':48s} {'value':>14s}  unit"]
    lines += [f"{name:48s} {metrics[name]:>14.6g}  {unit}" for name, unit in PER_LAYER]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------


def setup_sample(spec, seed, workdir, tracer=None):
    """(import seconds, build seconds, workload) of one set-up.

    The import is timed in a fresh interpreter that imports what this
    process imports (``bench`` pulls in numpy and every dmfnet module). The
    build makes the net, the cases and, for infer, the checkpoint and the
    case files. With a tracer, the build runs with the wrappers installed,
    so ``data.load_params`` gets its spans.
    """
    # no timeout: with one, the wait polls and rounds the time up to 50 ms
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import bench"], cwd=HERE, check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    import_s = time.perf_counter() - t
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t = time.perf_counter()
    if tracer is not None:
        with tracer.installed_wrappers():
            wl = spec.build(seed, workdir)
    else:
        wl = spec.build(seed, workdir)
    return import_s, time.perf_counter() - t, wl


def run(name, seed, seconds, trace):
    """(result dict for stdout, record dict for the out file, tracer or None)."""
    spec = WORKLOADS[name]
    tracer = spans.Tracer() if trace else None
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    late_dir = OUT_DIR / f"tmp-{os.getpid()}-late"
    try:
        samples = []
        for r in range(SETUP_REPEATS):
            *sample, wl = setup_sample(spec, seed, workdir,
                                       tracer if r == SETUP_REPEATS - 1 else None)
            samples.append(sample)
        reference = Reference()
        # untimed: a first op runs 10-25% slower than the next ones
        warm = timed_loop(wl, 0.0, 1, 0, reference)
        warm_problems = [] if all(warm.ok) else ["the warm-up op failed its check"]

        if trace:
            timed = timed_loop(wl, seconds / 2, 1, 1, reference)
            with tracer.installed_wrappers():
                traced = timed_loop(wl, seconds / 2, 1, 1 + len(timed.durations), reference,
                                    tracer=tracer)
            phases = (timed, traced)
        else:
            timed = timed_loop(wl, seconds, spec.min_ops, 1, reference)
            phases = (timed,)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ceilings = sgemm_ceilings()

        if trace:
            problems = warm_problems + mac_check(tracer, traced, wl)
            metrics = layer_metrics(tracer, traced, statistics.median(timed.ratios), ceilings)
            units = dict(PER_LAYER)
        else:
            t = time.perf_counter()
            quality, problems, checks = wl.quality(timed.outputs, timed.ok)
            checks["float64_check_s"] = time.perf_counter() - t
            problems = warm_problems + problems
            # The host's speed drifts within a run, so set-up is sampled at
            # both ends of it; the best import plus the best build counts.
            for _ in range(SETUP_REPEATS):
                samples.append(setup_sample(spec, seed, late_dir)[:2])
            import_s = min(i for i, _ in samples)
            build_s = min(b for _, b in samples)
            n = len(timed.durations)
            metrics = {
                "setup_s": import_s + build_s,
                "op_over_ref": statistics.median(timed.ratios),
                "peak_rss_mib": peak_rss_mib,
                "ok_ratio": sum(timed.ok) / n,
                "loss_end": quality["loss_end"],
                "f64_agree": quality["f64_agree"],
            }
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(late_dir, ignore_errors=True)

    attempted = sum(len(p.durations) for p in phases)
    failed = sum(p.ok.count(False) for p in phases)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "problems": problems,
        "setup_samples_s": samples,
        "op_s": [p.durations for p in phases],
        "ref_s": [p.ref_s for p in phases],
        "env": environment(seed, ceilings),
        **result,
    }
    if not trace:
        record["float64_checks"] = checks
        tail_pct, tail = tail_percentile(timed.durations)
        voxels = int(np.prod(wl.input_shape[2:]))
        record["info"] = {
            "op_s_p50": (statistics.median(timed.durations), "s"),
            "op_s_min": (min(timed.durations), "s"),
            f"op_s_tail_{tail_pct}": (tail, "s"),
            "voxels_per_s": (len(timed.durations) * voxels / sum(timed.durations), "1/s"),
            "ops_timed": (len(timed.durations), "count"),
            "warmup_op_s": (warm.durations[0], "s"),
            "ref_s_p50": (statistics.median(timed.ref_s), "s"),
        }
    return result, record, tracer


def main(argv=None):
    p = argparse.ArgumentParser(description="one perfbench workload (use run.py)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(dmfnet.__file__).resolve().parents:
        print(f"perfbench: dmfnet was imported from {dmfnet.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    result, record, tracer = run(args.workload, args.seed, args.seconds, args.trace)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_jsonl(f"{stem}-spans.jsonl")
        Path(f"{stem}-layers.txt").write_text(
            layer_table({k: v["value"] for k, v in result["metrics"].items()}))
    for problem in record["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    better = {name: b for name, _, b in END_TO_END}
    for name, m in result["metrics"].items():
        direction = f" ({better[name]} is better)" if name in better else ""
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}{direction}")
    for name, (value, unit) in record.get("info", {}).items():
        print(f"{args.workload} {name} {value:.6g} {unit} (informational)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
