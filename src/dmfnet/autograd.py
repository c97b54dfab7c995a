"""Reverse-mode differentiation over the fixed kernel vocabulary of
:mod:`dmfnet.ops`, plus an independent finite-difference verifier.

Every traced op (``t_*``) has one path: it computes its forward once and
builds its backward rule, and only when a tape is given does it record a
node; without one it returns the bare array and keeps nothing. A
:class:`GradTape` holds the recorded forward pass as a topologically ordered
list of nodes (define-by-run order is already topological). Each node stores
its output, its parents and a backward rule; :func:`backward` walks the list
in reverse, accumulating gradients into parents and into every trainable
:class:`Parameter` touched by the pass. Each interior node's gradient and
rule are released as soon as the rule has run; outputs (``data``) and
parents stay, so the tape can still be inspected. Tapes are single-use.

No recorded array exists only to be read by an add or a concat, whose rules
need no saved data: a residual add is fused into the conv that feeds it (the
conv adds the residual into its own fresh output, :func:`t_conv3d`), and the
decoder's upsample writes straight into its concat buffer
(:func:`t_upsample_concat`). Nor does the tape keep a BN+ReLU output: the
one conv that reads it reads it a band of depth planes at a time, in the
forward and again for the weight gradient, from what the tape keeps anyway,
the BN input and statistics (``t_conv3d(bn=)``), so no pass makes it whole.
That holds for a DMF unit's ``bn1`` too: its dilated branches and their
weighted sum are one conv over dilated views (``t_conv3d(omega=)``). Both
BN+ReLU ops take their moments, output and rule from one :func:`_bn_relu`.
The head upsamples the classifier's logits (:func:`t_trilinear_upsample`),
not dec3's wider features.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError


class Parameter:
    """Named learnable array. Optimizers update ``data`` in place.

    decay=False exempts the tensor from L2 regularization (used for the
    dilated-branch weights); trainable=False freezes it entirely.
    """

    __slots__ = ("name", "data", "decay", "trainable")

    def __init__(self, name, data, decay=True, trainable=True):
        self.name = name
        self.data = np.ascontiguousarray(data)
        self.decay = decay
        self.trainable = trainable

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape}, dtype={self.data.dtype})"


class Var:
    """One recorded value in a tape. ``rebuild``, set only on a conv that
    runs its own BN+ReLU (``t_conv3d(bn=)``), returns that BN+ReLU output as
    one array; the conv itself never makes it whole."""

    __slots__ = ("data", "grad", "op", "parents", "backward_fn", "param", "rebuild")

    def __init__(self, data, op="leaf", parents=(), backward_fn=None, param=None):
        self.data = data
        self.grad = None
        self.op = op
        self.parents = parents
        self.backward_fn = backward_fn
        self.param = param
        self.rebuild = None


class GradTape:
    """Ordered record of one forward pass."""

    def __init__(self):
        self.nodes = []
        self.input_var = None
        self.output_var = None
        self.consumed = False
        self._param_vars = {}
        self._param_names = {}

    def leaf(self, data, param=None):
        v = Var(np.asarray(data), op="param" if param is not None else "input", param=param)
        self.nodes.append(v)
        return v

    def param_var(self, param):
        """Memoized leaf Var for a Parameter (one node per tape per parameter)."""
        key = id(param)
        if key not in self._param_vars:
            prev = self._param_names.get(param.name)
            if prev is not None and prev != key:
                raise ConfigError(f"duplicate parameter name on tape: {param.name!r}")
            self._param_names[param.name] = key
            self._param_vars[key] = self.leaf(param.data, param=param)
        return self._param_vars[key]

    def node(self, data, op, parents, backward_fn):
        v = Var(data, op=op, parents=tuple(parents), backward_fn=backward_fn)
        self.nodes.append(v)
        return v


def forward_record(block, x, mode="train"):
    """Run ``block.forward`` under a fresh tape.

    Returns (output array, tape). The output equals the plain forward
    bit-exactly; the tape captures every parameterized op.
    """
    tape = GradTape()
    xv = tape.leaf(x)
    tape.input_var = xv
    out = block.forward(xv, mode=mode, tape=tape)
    tape.output_var = out
    return out.data, tape


def backward(tape, output_grad):
    """Reverse sweep: gradients of sum(output * output_grad).

    Returns (input_grad, param_grads) where param_grads maps parameter name
    to a gradient of identical shape. Once a node's rule has handed its
    gradients to its parents, the node drops its own gradient and its rule,
    so only the gradients the rest of the sweep reads are alive; the output
    node and the leaves keep theirs, and every node keeps ``data`` and
    ``parents``. Tapes are single-use.
    """
    if tape.consumed:
        raise ConfigError("tape already consumed; record a fresh forward pass")
    out = tape.output_var
    output_grad = np.asarray(output_grad, dtype=out.data.dtype)
    if output_grad.shape != out.data.shape:
        raise ShapeError(
            f"output_grad shape {output_grad.shape} != recorded output {out.data.shape}"
        )
    tape.consumed = True

    out.grad = output_grad
    for v in reversed(tape.nodes):
        if v.grad is None or v.backward_fn is None:
            continue
        for parent, g in zip(v.parents, v.backward_fn(v.grad)):
            parent.grad = g if parent.grad is None else parent.grad + g
        if v is not out:
            v.grad = v.backward_fn = None

    grads = {}
    for v in tape._param_vars.values():
        if not v.param.trainable:
            continue
        grads[v.param.name] = v.grad if v.grad is not None else np.zeros_like(v.data)
    input_grad = tape.input_var.grad
    if input_grad is None:
        input_grad = np.zeros_like(tape.input_var.data)
    return input_grad, grads


# ---------------------------------------------------------------------------
# Traced ops. Each reads its inputs (arrays or Vars) through _data, computes
# its forward once with the ops.* kernels and builds its backward rule; _record
# returns the bare array without a tape and records a node under one.
# ---------------------------------------------------------------------------


def _data(x):
    """The array behind a Var or Parameter; anything else as it is."""
    return x.data if isinstance(x, (Var, Parameter)) else x


def _record(tape, data, op, parents, bwd):
    """``data`` itself when there is no tape. Otherwise a node on the tape
    whose parents are ``parents`` with each Parameter mapped to its leaf Var;
    ``bwd`` returns one gradient per parent."""
    if tape is None:
        return data
    parents = [tape.param_var(p) if isinstance(p, Parameter) else p for p in parents]
    return tape.node(data, op, parents, bwd)


def t_conv3d(tape, x, weight, spec, transpose_weight=False, residual=None, bn=None, mode="train",
             omega=None):
    """Traced conv3d. With transpose_weight the kernel is the channel
    transpose of ``weight`` (used by the tied multiplexer pair); the weight
    gradient is transposed back before accumulating into the parameter.

    With ``omega`` (one scalar per view of ``spec``), ``weight`` is a
    sequence of one weight per view and the kernel is
    ``[omega_1 W_1 | omega_2 W_2 | ...]`` on the input-channel axis: the
    weighted sum of the views' convs as one conv (a DMF unit's branches). The
    forward leaves out a view whose omega is exactly 0, and so does the input
    gradient, which reads the forward's kernel. Backward takes one weight
    gradient G over all views; for view i, ``dW_i = omega_i G_i`` and, if
    omega is trainable, ``d omega_i = <G_i, W_i>``. The node's parents are
    then (x, W_1, ..., [omega], ...).

    A ``residual`` of the output's shape is added in place into the conv's
    fresh output, so conv and shortcut add are one node with parents
    (x, weight, residual), whose rule hands g to the residual as
    :func:`t_add` does. The sum is bit-identical to ``t_add(conv, residual)``.

    With ``bn`` (a BatchNorm3d) the conv reads ``relu(batch_norm(x))`` in
    ``mode``, never whole: ``ops.conv3d`` gets x and the BN affine (the
    moments, gamma, beta and eps) and makes the operand a band of depth
    planes at a time (``bn=`` of :func:`dmfnet.ops.conv3d`), and backward
    hands ``ops.conv3d_weight_grad`` the same affine, so it remakes the bands
    bit for bit from x and the saved mean and var. The input gradient then
    goes through the BN+ReLU rule of :func:`_bn_relu`, as in
    :func:`t_batch_norm`, whose ReLU mask is remade block by block from the
    same apply arithmetic; an operand of one block is built whole once
    instead, for the weight gradient and as the mask. So the tape keeps x but
    no operand, and the node's parents gain (bn.gamma, bn.beta). Every output
    and gradient is bit-identical to ``t_conv3d(t_batch_norm(x, bn, mode),
    ...)``. The node's ``rebuild`` returns the BN+ReLU output, whole, for
    the kink mask of :func:`finite_diff_check`."""
    xd = _data(x)
    affine = None
    if bn is not None:
        affine, build, bn_rule = _bn_relu(xd, bn, mode)
    weights = (weight,) if omega is None else tuple(weight)
    fspec = spec
    if omega is not None:
        if omega.data.shape != (len(spec.views),) or len(weights) != len(spec.views):
            raise ShapeError(f"{len(spec.views)} views need as many weights and omegas, got "
                             f"{len(weights)} and omega of shape {omega.data.shape}")
        om = omega.data.copy()  # the values this forward used, for backward
        # a view whose omega is 0 adds nothing: the forward leaves it out
        keep = [i for i, o in enumerate(om) if o != 0] or list(range(len(om)))
        fspec = replace(spec, views=tuple(spec.views[i] for i in keep))
        w = np.concatenate([om[i] * weights[i].data for i in keep], axis=1)
    elif transpose_weight:
        # channel-transposed view shares storage with the parameter (tied convs)
        w = weight.data.transpose(1, 0, 2, 3, 4)
    else:
        w = weight.data
    data = ops.conv3d(xd, w, fspec, bn=affine)
    parents = (x, *weights) if omega is None or not omega.trainable else (x, *weights, omega)
    if residual is not None:
        rd = _data(residual)
        if rd.shape != data.shape:
            raise ShapeError(f"residual shape {rd.shape} != conv output {data.shape}")
        data += rd
        parents += (residual,)
    if bn is not None:
        parents += (bn.gamma, bn.beta)

    def bwd(g):
        # a BN+ReLU operand of one block is built whole, for the weight
        # gradient and as the rule's ReLU mask: cheaper than making it twice
        kept = build() if bn is not None and xd.nbytes <= ops.BLOCK_BYTES else None
        if kept is None:
            gw = ops.conv3d_weight_grad(xd, g, spec, bn=affine)
        else:
            gw = ops.conv3d_weight_grad(kept, g, spec)
        if transpose_weight:
            gw = gw.transpose(1, 0, 2, 3, 4)
        gws = (gw,)
        if omega is not None:
            blocks = np.split(gw, len(weights), axis=1)
            gws = tuple(o * b for o, b in zip(om, blocks))
            if omega.trainable:
                gws += (np.array([(b * wi.data).sum() for b, wi in zip(blocks, weights)],
                                 dtype=om.dtype),)
        gx = ops.conv3d_input_grad(g, w, fspec, xd.shape)
        rest = () if residual is None else (g,)
        if bn is None:
            return (gx, *gws, *rest)
        # gx is this rule's own array: it becomes dx
        dx, dgamma, dbeta = bn_rule(gx, kept, out=gx)
        return (dx, *gws, *rest, dgamma, dbeta)

    node = _record(tape, data, "conv3d", parents, bwd)
    if tape is not None and bn is not None:
        node.rebuild = build
    return node


def _bn_relu(xd, bn, mode):
    """relu(batch_norm(xd)) with ``bn`` (a BatchNorm3d) in ``mode``, for
    :func:`t_batch_norm` and ``t_conv3d(bn=)``: checks xd and returns
    ``bn.affine(xd, mode)``, which the conv kernels read it through (``bn=``
    of :func:`dmfnet.ops.conv3d`), ``build(c)``, the
    output on channels c (all by default), and ``rule(g, kept, out)``, its
    (dx, dgamma, dbeta) given the output gradient g, with dx written into
    ``out`` (which may be g itself). The rule runs one channel block at a
    time (:func:`dmfnet.ops.channel_blocks`): the block of g, masked by
    ``kept > 0`` (the caller's kept output) or else by ``build(c) > 0``, goes
    into out's block, so the subgradient at exactly 0 is 0, as in t_relu; the
    BN rule then turns it into dx in place, in the closed form of the chain
    rule of Ioffe & Szegedy. g is read only where out has not been written,
    and xd is never written.

    Scratch: xhat and the ``gm * xhat`` product, one block each, and the mask."""
    xd = ops.check_volume5d(xd)
    affine = bn.affine(xd, mode)
    mean, var = affine[:2]

    def build(c=slice(None)):
        return ops.batch_norm_apply(xd[:, c], *(a[c] for a in affine[:4]), bn.eps, relu=True)

    def rule(g, kept, out):
        shape = (1, -1, 1, 1, 1)
        inv = 1.0 / np.sqrt(var + bn.eps)
        count = xd.size // xd.shape[1]
        dgamma, dbeta = np.empty_like(inv), np.empty_like(inv)
        for c in ops.channel_blocks(xd):
            gm = np.multiply(g[:, c], (build(c) if kept is None else kept[:, c]) > 0,
                             out=out[:, c])
            xhat = xd[:, c] - mean[c].reshape(shape)
            xhat *= inv[c].reshape(shape)
            dgamma[c] = ops.channel_sum(gm * xhat)
            dbeta[c] = ops.channel_sum(gm)
            if mode == "train":
                # dx = gamma inv (gm - (dbeta + xhat dgamma) / count); eval-mode
                # BN is an affine map in x, so there dx = gamma inv gm
                xhat *= dgamma[c].reshape(shape)
                xhat += dbeta[c].reshape(shape)
                xhat /= count
                gm -= xhat
            gm *= (bn.gamma.data[c] * inv[c]).reshape(shape)
            # this block's scratch goes before the next block's is made
            del xhat
        return out, dgamma, dbeta

    return affine, build, rule


def t_batch_norm(tape, x, bn, mode="train"):
    """relu(batch_norm(x)) as one node; ``bn`` is a BatchNorm3d. Backward
    masks g with its kept ``out > 0`` block by block and runs the BN rule of
    :func:`_bn_relu` into a fresh dx. The network records no such node:
    the conv that reads a BN+ReLU runs it itself, ``t_conv3d(bn=)``. A
    BatchNorm3d checked alone runs this one."""
    _, build, rule = _bn_relu(_data(x), bn, mode)
    data = build()
    # g is not written: a residual conv hands one g to two parents
    return _record(tape, data, "batch_norm", (x, bn.gamma, bn.beta),
                   lambda g: rule(g, data, out=np.empty_like(g)))


def t_relu(tape, x):
    xd = _data(x)

    def bwd(g):
        # subgradient at exactly 0 is defined as 0
        return (g * (xd > 0),)

    return _record(tape, ops.relu(xd), "relu", (x,), bwd)


def t_add(tape, a, b):
    return _record(tape, ops.add(_data(a), _data(b)), "add", (a, b), lambda g: (g, g))


def t_concat_channels(tape, a, b):
    ad = _data(a)

    def bwd(g):
        return g[:, :ad.shape[1]], g[:, ad.shape[1]:]

    return _record(tape, ops.concat_channels(ad, _data(b)), "concat_channels", (a, b), bwd)


def t_trilinear_upsample(tape, x, scale):
    """Traced trilinear upsample: the network's head, which brings the
    classifier's logits back to full resolution. Its rule reads only x's
    shape."""
    xd = _data(x)

    def bwd(g):
        return (ops.trilinear_upsample_grad(g, xd.shape, scale),)

    return _record(tape, ops.trilinear_upsample(xd, scale), "trilinear_upsample", (x,), bwd)


def t_upsample_concat(tape, x, skip, scale):
    """concat_channels(trilinear_upsample(x, scale), skip) as one node: the
    upsample writes the first channels of the concat buffer and the skip is
    copied after it, so no separate upsample output is kept."""
    xd, sd = ops.check_volume5d(_data(x)), ops.check_volume5d(_data(skip), "skip")
    c = xd.shape[1]
    data = np.empty((sd.shape[0], c + sd.shape[1]) + sd.shape[2:], dtype=xd.dtype)
    # raises ShapeError unless the upsample's (n, d, h, w) are the skip's
    ops.trilinear_upsample(xd, scale, out=data[:, :c])
    data[:, c:] = sd

    def bwd(g):
        # a copy of the skip's channels: a view would keep all of g alive
        # until the skip's last rule has run
        return ops.trilinear_upsample_grad(g[:, :c], xd.shape, scale), g[:, c:].copy()

    return _record(tape, data, "upsample_concat", (x, skip), bwd)


def t_softmax_channels(tape, x):
    data = ops.softmax_channels(_data(x))

    def bwd(g):
        dot = (g * data).sum(axis=1, keepdims=True)
        return (data * (g - dot),)

    return _record(tape, data, "softmax_channels", (x,), bwd)


def t_branch_weighted_sum(tape, branches, omega):
    """sum_i omega[i] * branches[i] with learnable scalar weights. A DMF unit
    runs its branches and this sum as one conv (``t_conv3d(omega=)``).

    d(omega_i) is the inner product of branch i's output with the upstream
    gradient; branch gradients are omega_i * upstream. A frozen omega gets
    no gradient and no tape node.
    """
    w = omega.data
    if w.shape != (len(branches),):
        raise ShapeError(f"omega has shape {w.shape}, expected ({len(branches)},)")
    ys = [_data(b) for b in branches]
    data = w[0] * ys[0]
    for i in range(1, len(ys)):
        data += w[i] * ys[i]

    def bwd(g):
        grads = [w[i] * g for i in range(len(ys))]
        if omega.trainable:
            grads.append(np.array([(y * g).sum() for y in ys], dtype=w.dtype))
        return grads

    parents = [*branches, omega] if omega.trainable else branches
    return _record(tape, data, "branch_weighted_sum", parents, bwd)


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------


@dataclass
class TensorCheck:
    name: str
    max_rel_err: float
    checked: int
    masked: int
    passed: bool


@dataclass
class CheckReport:
    """Per-tensor comparison of analytic gradients against central differences."""

    tolerance: float
    step: float
    rows: list = field(default_factory=list)
    failure: str | None = None

    @property
    def passed(self):
        return self.failure is None and all(r.passed for r in self.rows)

    def __str__(self):
        lines = [f"finite-difference check (tol={self.tolerance:g}, step={self.step:g})"]
        if self.failure:
            lines.append(f"  FAILED: {self.failure}")
        for r in self.rows:
            status = "ok" if r.passed else "FAIL"
            lines.append(
                f"  {status:4s} {r.name:40s} max_rel_err={r.max_rel_err:.3e} "
                f"checked={r.checked} masked={r.masked}"
            )
        return "\n".join(lines)


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _loss_and_relu_outputs(block, x, mode):
    """Loss = sum of outputs, plus every ReLU output of the pass, fused BN+ReLU
    included: its sign pattern is that of the ReLU input. A conv that runs
    its own BN+ReLU gives the rebuilt BN+ReLU output."""
    out, tape = forward_record(block, x, mode=mode)
    acts = [v.data if v.rebuild is None else v.rebuild() for v in tape.nodes
            if v.op in ("relu", "batch_norm") or v.rebuild is not None]
    return float(out.sum()), acts


def _crosses_kink(acts_plus, acts_minus):
    """True when the probe moved some ReLU input across its kink, which puts
    the central difference on two different linear pieces."""
    for ap, am in zip(acts_plus, acts_minus):
        if ((ap > 0) != (am > 0)).any():
            return True
    return False


def finite_diff_check(block, x, tolerance=1e-5, step=1e-5, max_per_tensor=200,
                      mode="train", rng=None):
    """Compare analytic gradients of L = sum(block(x)) to central differences.

    Requires 64-bit input and parameters. Samples up to ``max_per_tensor``
    scalars per parameter tensor and from the input. Probes that move a ReLU
    input across its kink (the exact case of sitting within one step of the
    kink along the probe direction) are masked rather than compared, since
    the two central-difference evaluations would straddle the corner.
    Restores any running-statistic buffers afterwards.
    """
    x = np.ascontiguousarray(x)
    if x.dtype != np.float64:
        raise ConfigError("finite_diff_check requires float64 input")
    params = [p for p in block.parameters() if p.trainable]
    for p in params:
        if p.data.dtype != np.float64:
            raise ConfigError(f"finite_diff_check requires float64 parameters ({p.name})")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    report = CheckReport(tolerance=tolerance, step=step)
    saved_buffers = [(a, a.copy()) for _, a in block.buffers()]
    try:
        out, tape = forward_record(block, x, mode=mode)
        loss = float(out.sum())
        if not np.isfinite(loss):
            report.failure = f"loss is not finite: {loss}"
            return report
        gin, grads = backward(tape, np.ones_like(out))

        targets = [(p.name, p.data, grads[p.name]) for p in params]
        targets.append(("input", x, gin))
        for name, arr, analytic in targets:
            flat = arr.reshape(-1)
            aflat = analytic.reshape(-1)
            size = flat.size
            if size <= max_per_tensor:
                idx = np.arange(size)
            else:
                idx = np.sort(rng.choice(size, size=max_per_tensor, replace=False))
            max_err = 0.0
            masked = 0
            checked = 0
            for i in idx:
                orig = flat[i]
                flat[i] = orig + step
                lp, acts_p = _loss_and_relu_outputs(block, x, mode)
                flat[i] = orig - step
                lm, acts_m = _loss_and_relu_outputs(block, x, mode)
                flat[i] = orig
                if _crosses_kink(acts_p, acts_m):
                    masked += 1
                    continue
                numeric = (lp - lm) / (2.0 * step)
                max_err = max(max_err, _rel_err(float(aflat[i]), numeric))
                checked += 1
            report.rows.append(TensorCheck(
                name=name, max_rel_err=max_err, checked=checked,
                masked=masked, passed=max_err <= tolerance,
            ))
    finally:
        for arr, saved in saved_buffers:
            arr[:] = saved
    return report
