"""Tape recording, backward rules and the finite-difference verifier."""

import tracemalloc

import numpy as np
import pytest

from dmfnet import autograd as ag, blocks, losses, network, ops
from dmfnet.errors import ConfigError, ShapeError
from dmfnet.network import CLASS_LABELS

from oracles import batch_norm_relu_backward_chain_rule, batch_norm_relu_backward_reference


class ReluBlock:
    def forward(self, x, mode="train", tape=None):
        return ag.t_relu(tape, x)

    def parameters(self):
        return []

    def buffers(self):
        return []


class AddSelfBlock:
    """y = x + x, exercising gradient accumulation into one parent."""

    def forward(self, x, mode="train", tape=None):
        return ag.t_add(tape, x, x)

    def parameters(self):
        return []

    def buffers(self):
        return []


def conv_layer(rng, c_in=2, c_out=2, groups=1, stride=1, dilation=1, dtype=np.float64):
    spec = ops.ConvSpec(c_in, c_out, kernel=3, stride=stride, dilation=dilation,
                        padding=ops.same_padding(3, dilation), groups=groups)
    return blocks.Conv3dLayer("conv", spec, rng, dtype=dtype)


class TestForwardRecord:
    def test_relu_block_matches_plain(self, rng):
        x = rng.standard_normal((1, 1, 2, 2, 2))
        out, tape = ag.forward_record(ReluBlock(), x)
        np.testing.assert_array_equal(out, ops.relu(x))
        assert tape.output_var.data is out

    def test_conv_block_matches_plain(self, rng):
        layer = conv_layer(rng)
        x = rng.standard_normal((1, 2, 4, 4, 4))
        plain = layer.forward(x)
        recorded, _ = ag.forward_record(layer, x)
        np.testing.assert_array_equal(plain, recorded)

    def test_dmf_unit_matches_composed_ops(self, rng):
        """Recorded DMF forward equals the same pipeline composed by hand, bit
        for bit with the branches as one conv over three dilated views, and
        within 1e-12 of the three branch convs summed."""
        cfg = blocks.DMFUnitConfig(4, 4, 4, g=2)
        unit = blocks.DMFUnit("dmf", cfg, rng, np.float64)
        unit.omega.data[...] = (0.7, 1.3, -0.4)
        x = rng.standard_normal((1, 4, 6, 6, 6))
        recorded, _ = ag.forward_record(unit, x, mode="eval")

        def bn_eval(layer, v):
            return ops.batch_norm_apply(v, layer.running_mean, layer.running_var,
                                        layer.gamma.data, layer.beta.data, layer.eps)

        h = ops.relu(bn_eval(unit.mux.bn_squeeze, x))
        h = ops.conv3d(h, unit.mux.weight.data, unit.mux.squeeze_spec)
        h = ops.relu(bn_eval(unit.mux.bn_inflate, h))
        h = ops.conv3d(h, unit.mux.weight.data.transpose(1, 0, 2, 3, 4),
                       unit.mux.inflate_spec)
        h = ops.add(h, x)
        a = ops.relu(bn_eval(unit.bn1, h))
        w = unit.omega.data

        def tail(mix):
            z = ops.relu(bn_eval(unit.conv2.bn, mix))
            z = ops.conv3d(z, unit.conv2.conv.weight.data, unit.conv2.conv.spec)
            return ops.add(z, x)

        views = ops.ConvSpec(4, 4, kernel=3, groups=2, views=((1, 1), (2, 2), (3, 3)))
        kernel = np.concatenate([w[i] * b.weight.data for i, b in enumerate(unit.branches)], axis=1)
        np.testing.assert_array_equal(recorded, tail(ops.conv3d(a, kernel, views)))
        ys = [ops.conv3d(a, b.weight.data, b.spec) for b in unit.branches]
        np.testing.assert_allclose(recorded, tail(w[0] * ys[0] + w[1] * ys[1] + w[2] * ys[2]),
                                   rtol=1e-12, atol=1e-12)


class TestBackward:
    def test_relu_grads(self):
        x = np.array([-1.0, 2.0]).reshape(1, 1, 1, 1, 2)
        out, tape = ag.forward_record(ReluBlock(), x)
        gin, grads = ag.backward(tape, np.ones_like(out))
        np.testing.assert_array_equal(gin.ravel(), [0.0, 1.0])
        assert grads == {}

    def test_relu_subgradient_at_zero_is_zero(self):
        x = np.zeros((1, 1, 1, 1, 3))
        out, tape = ag.forward_record(ReluBlock(), x)
        gin, _ = ag.backward(tape, np.ones_like(out))
        np.testing.assert_array_equal(gin, 0.0)

    def test_sum_of_add_gives_ones(self, rng):
        x = rng.standard_normal((1, 1, 2, 2, 2))
        out, tape = ag.forward_record(AddSelfBlock(), x)
        gin, _ = ag.backward(tape, np.ones_like(out))
        np.testing.assert_array_equal(gin, 2.0)  # both uses accumulate

    def test_conv_weight_grad_matches_finite_differences(self, rng):
        layer = conv_layer(rng, c_in=2, c_out=2, groups=2)
        x = rng.standard_normal((1, 2, 4, 4, 4))
        rep = ag.finite_diff_check(layer, x, tolerance=1e-6, step=1e-5,
                                   max_per_tensor=54, rng=0)
        assert rep.passed, str(rep)

    def test_zero_output_grad_gives_zero_grads(self, rng):
        layer = conv_layer(rng)
        x = rng.standard_normal((1, 2, 4, 4, 4))
        out, tape = ag.forward_record(layer, x)
        gin, grads = ag.backward(tape, np.zeros_like(out))
        np.testing.assert_array_equal(gin, 0.0)
        np.testing.assert_array_equal(grads["conv.weight"], 0.0)

    def test_linearity_in_output_grad(self, rng):
        layer = conv_layer(rng)
        x = rng.standard_normal((1, 2, 4, 4, 4))
        g1 = rng.standard_normal((1, 2, 4, 4, 4))
        g2 = rng.standard_normal((1, 2, 4, 4, 4))

        def run(g):
            out, tape = ag.forward_record(layer, x)
            return ag.backward(tape, g)

        gin_a, gr_a = run(g1)
        gin_b, gr_b = run(g2)
        gin_c, gr_c = run(g1 + g2)
        np.testing.assert_allclose(gin_c, gin_a + gin_b, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gr_c["conv.weight"],
                                   gr_a["conv.weight"] + gr_b["conv.weight"],
                                   rtol=1e-12, atol=1e-12)

    def test_tape_is_single_use(self, rng):
        layer = conv_layer(rng)
        x = rng.standard_normal((1, 2, 4, 4, 4))
        out, tape = ag.forward_record(layer, x)
        ag.backward(tape, np.ones_like(out))
        with pytest.raises(ConfigError, match="consumed"):
            ag.backward(tape, np.ones_like(out))

    def test_output_grad_shape_checked(self, rng):
        layer = conv_layer(rng)
        out, tape = ag.forward_record(layer, rng.standard_normal((1, 2, 4, 4, 4)))
        with pytest.raises(ShapeError):
            ag.backward(tape, np.ones((1, 2, 3, 3, 3)))

    def test_sweep_releases_what_it_no_longer_needs(self, rng):
        """Interior gradients and rules go as the sweep passes; the output's
        gradient, every leaf's gradient and every node's data stay. (The toy
        tape has 59 interior nodes: each BN+ReLU is part of the conv node that
        reads it, each DMF unit's three branches are one conv node, and the
        head is the classifier conv and the upsample of its logits.)"""
        net = network.build_network(network.toy_config(), seed=0)
        x = rng.standard_normal((1, 4, 16, 16, 16)).astype(np.float32)
        out, tape = ag.forward_record(net, x)
        gin, grads = ag.backward(tape, np.ones_like(out))
        leaves = [v for v in tape.nodes if v.op in ("input", "param")]
        interior = [v for v in tape.nodes if v not in leaves and v is not tape.output_var]
        assert len(interior) == 59
        assert all(v.grad is None and v.backward_fn is None for v in interior)
        assert tape.output_var.grad is not None
        assert gin is tape.input_var.grad
        params = [v for v in leaves if v.op == "param"]
        assert sorted(grads) == sorted(v.param.name for v in params)
        assert all(grads[v.param.name] is v.grad for v in params)
        assert all(v.data is not None for v in tape.nodes)

    def test_grouped_conv_grad_equals_per_group(self, rng):
        """Gradients of a grouped conv equal per-group gradients, concatenated."""
        g = 2
        spec = ops.ConvSpec(4, 4, kernel=3, padding=1, groups=g)
        layer = blocks.Conv3dLayer("c", spec, rng, dtype=np.float64)
        x = rng.standard_normal((1, 4, 4, 4, 4))
        gout = rng.standard_normal((1, 4, 4, 4, 4))
        out, tape = ag.forward_record(layer, x)
        gin, grads = ag.backward(tape, gout)

        sub = ops.ConvSpec(2, 2, kernel=3, padding=1)
        for i in range(g):
            part = blocks.Conv3dLayer("p", sub, rng, dtype=np.float64)
            part.weight.data[...] = layer.weight.data[2 * i: 2 * i + 2]
            o, t = ag.forward_record(part, x[:, 2 * i: 2 * i + 2])
            gi, gr = ag.backward(t, gout[:, 2 * i: 2 * i + 2])
            np.testing.assert_array_equal(gin[:, 2 * i: 2 * i + 2], gi)
            np.testing.assert_array_equal(grads["c.weight"][2 * i: 2 * i + 2],
                                          gr["p.weight"])


def three_branch_first(unit):
    """Make a DMF unit run its first conv as the paper draws it: one BN+ReLU
    node, three branch convs and their weighted sum, each a node of its own."""
    def first(h, mode, tape):
        a = ag.t_batch_norm(tape, h, unit.bn1, mode)
        ys = [ag.t_conv3d(tape, a, b.weight, b.spec) for b in unit.branches]
        return ag.t_branch_weighted_sum(tape, ys, unit.omega)
    unit._first = first
    return unit


class TestDMFUnitConv:
    """A DMF unit's three branches run as one conv over three dilated views."""

    @pytest.mark.parametrize("weight_mode", ["learnable", "fixed_equal"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_finite_differences(self, rng, stride, weight_mode):
        cfg = blocks.DMFUnitConfig(4, 4, 8, g=2, stride=stride, weight_mode=weight_mode)
        unit = blocks.DMFUnit("dmf", cfg, rng, np.float64)
        unit.omega.data[...] = (0.8, 1.2, -0.5)
        rep = ag.finite_diff_check(unit, rng.standard_normal((2, 4, 6, 6, 6)), tolerance=1e-5,
                                   step=1e-5, max_per_tensor=30, rng=0)
        assert rep.passed, str(rep)
        names = {r.name for r in rep.rows}
        assert ("dmf.omega" in names) == (weight_mode == "learnable")

    @pytest.mark.parametrize("omega", [(1.0, 0.0, 1.0), (0.7, 1.3, -0.4)], ids=["101", "mixed"])
    @pytest.mark.parametrize("weight_mode", ["learnable", "fixed_equal"])
    def test_gradients_equal_the_three_branch_tape(self, rng, omega, weight_mode):
        """Train mode, float64: every gradient within 1e-12 of the three
        branch nodes'. A view whose omega is 0 is left out of the forward, yet
        its weight gets dW = 0 and its omega the three-branch gradient."""
        cfg = blocks.DMFUnitConfig(4, 4, 8, g=2, stride=2, weight_mode=weight_mode)
        merged = blocks.DMFUnit("dmf", cfg, np.random.default_rng(3), np.float64)
        branches = three_branch_first(blocks.DMFUnit("dmf", cfg, np.random.default_rng(3),
                                                     np.float64))
        x = rng.standard_normal((2, 4, 6, 6, 6))
        results, kinds = [], []
        for unit in (merged, branches):
            unit.omega.data[...] = omega
            out, tape = ag.forward_record(unit, x, mode="train")
            g = np.random.default_rng(1).standard_normal(out.shape)
            results.append((out, *ag.backward(tape, g)))
            kinds.append({v.op for v in tape.nodes})
        assert "batch_norm" not in kinds[0] and "batch_norm" in kinds[1]
        (out, gx, grads), (out_b, gx_b, grads_b) = results
        close = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out, out_b, **close)
        np.testing.assert_allclose(gx, gx_b, **close)
        assert grads.keys() == grads_b.keys()
        assert ("dmf.omega" in grads) == (weight_mode == "learnable")
        for name in grads:
            np.testing.assert_allclose(grads[name], grads_b[name], err_msg=name, **close)
        if omega[1] == 0:
            assert not grads["dmf.branch_d2.weight"].any()
            if weight_mode == "learnable":
                assert grads["dmf.omega"][1] != 0


class TestTracedOps:
    def test_upsample_grad_is_transpose(self, rng):
        """<U x, y> == <x, U^T y> for random x, y."""
        x = rng.standard_normal((1, 2, 3, 4, 2))
        y = rng.standard_normal((1, 2, 6, 8, 4))
        ux = ops.trilinear_upsample(x, 2)
        uty = ops.trilinear_upsample_grad(y, x.shape, 2)
        np.testing.assert_allclose((ux * y).sum(), (x * uty).sum(), rtol=1e-12)

    def test_branch_weighted_sum_grads(self, rng):
        omega = ag.Parameter("omega", np.array([1.0, 2.0, 3.0]))
        xs = [rng.standard_normal((1, 1, 2, 2, 2)) for _ in range(3)]

        class Mix:
            def forward(self, x, mode="train", tape=None):
                b0 = ag.t_add(tape, x, x)
                return ag.t_branch_weighted_sum(tape, [x, b0, x], omega)

            def parameters(self):
                return [omega]

            def buffers(self):
                return []

        x = xs[0]
        out, tape = ag.forward_record(Mix(), x)
        np.testing.assert_allclose(out, 1.0 * x + 2.0 * (2 * x) + 3.0 * x)
        g = rng.standard_normal(out.shape)
        gin, grads = ag.backward(tape, g)
        np.testing.assert_allclose(grads["omega"],
                                   [(x * g).sum(), (2 * x * g).sum(), (x * g).sum()])
        np.testing.assert_allclose(gin, (1.0 + 2.0 * 2 + 3.0) * g)

    def test_fixed_omega_gets_no_grad_entry(self, rng):
        omega = ag.Parameter("omega", np.ones(2), trainable=False)

        class Mix:
            def forward(self, x, mode="train", tape=None):
                return ag.t_branch_weighted_sum(tape, [x, x], omega)

            def parameters(self):
                return [omega]

            def buffers(self):
                return []

        x = rng.standard_normal((1, 1, 2, 2, 2))
        out, tape = ag.forward_record(Mix(), x)
        _, grads = ag.backward(tape, np.ones_like(out))
        assert "omega" not in grads


def _sweep(fn, inputs, g):
    """(output, gradient of every input leaf, parameter gradients) of fn on a tape."""
    tape = ag.GradTape()
    leaves = [tape.leaf(a) for a in inputs]
    tape.input_var = leaves[0]
    tape.output_var = fn(tape, *leaves)
    _, grads = ag.backward(tape, g)
    return tape.output_var.data, [v.grad for v in leaves], grads


def _assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestFusedOps:
    """The fused residual conv and upsample+concat give the very bits of the
    ops they replace, forward and backward."""

    @pytest.mark.parametrize("transposed", [False, True], ids=["plain", "transpose_weight"])
    def test_conv_residual_equals_conv_then_add(self, rng, transposed):
        # either way a 4 -> 8 channel conv
        if transposed:
            mux = blocks.Multiplexer("mux", 8, rng, np.float32)
            weight, spec = mux.weight, mux.inflate_spec
        else:
            layer = conv_layer(rng, c_in=4, c_out=8, groups=2, dtype=np.float32)
            weight, spec = layer.weight, layer.spec
        x = rng.standard_normal((2, 4, 5, 4, 6)).astype(np.float32)
        r = rng.standard_normal((2, 8, 5, 4, 6)).astype(np.float32)
        g = rng.standard_normal(r.shape).astype(np.float32)
        fused = _sweep(lambda t, xv, rv: ag.t_conv3d(t, xv, weight, spec, transposed, residual=rv),
                       [x, r], g)
        split = _sweep(lambda t, xv, rv: ag.t_add(t, ag.t_conv3d(t, xv, weight, spec, transposed), rv),
                       [x, r], g)
        _assert_bitwise(fused[0], split[0])
        for a, b in zip(fused[1], split[1]):
            _assert_bitwise(a, b)
        assert list(fused[2]) == [weight.name]
        _assert_bitwise(fused[2][weight.name], split[2][weight.name])

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("variant", ["plain", "residual", "transpose_weight"])
    def test_bn_conv_equals_batch_norm_then_conv(self, rng, variant, mode):
        """t_conv3d(bn=) rebuilds its BN+ReLU input in backward; output,
        every gradient and the running statistics equal those of a
        t_batch_norm node read by a conv. The transposed case also takes a
        residual, as the multiplexer's inflate conv does."""
        if variant == "transpose_weight":
            mux = blocks.Multiplexer("mux", 8, rng, np.float32)
            weight, spec = mux.weight, mux.inflate_spec
        else:
            layer = conv_layer(rng, c_in=4, c_out=8, groups=2, dtype=np.float32)
            weight, spec = layer.weight, layer.spec
        transposed = variant == "transpose_weight"
        bn = blocks.BatchNorm3d("bn", 4)
        bn.gamma.data[:] = rng.standard_normal(4)
        bn.beta.data[:] = rng.standard_normal(4)
        bn.running_mean[:] = rng.standard_normal(4)
        bn.running_var[:] = rng.uniform(0.5, 2.0, 4)
        stats = [a.copy() for _, a in bn.buffers()]
        x = rng.standard_normal((2, 4, 5, 4, 6)).astype(np.float32)
        inputs = [x]
        if variant != "plain":
            inputs.append(rng.standard_normal((2, 8, 5, 4, 6)).astype(np.float32))
        g = rng.standard_normal((2, 8, 5, 4, 6)).astype(np.float32)

        def run(fn):
            for (_, a), a0 in zip(bn.buffers(), stats):
                a[:] = a0
            return _sweep(fn, inputs, g), [a.copy() for _, a in bn.buffers()]

        fused, fused_stats = run(lambda t, xv, *r: ag.t_conv3d(
            t, xv, weight, spec, transposed, *r, bn=bn, mode=mode))
        split, split_stats = run(lambda t, xv, *r: ag.t_conv3d(
            t, ag.t_batch_norm(t, xv, bn, mode), weight, spec, transposed, *r))
        assert 0 < (ops.batch_norm(x, bn, mode) > 0).mean() < 1
        _assert_bitwise(fused[0], split[0])
        for a, b in zip(fused[1], split[1]):
            _assert_bitwise(a, b)
        assert sorted(fused[2]) == sorted(split[2]) == sorted([weight.name, "bn.gamma", "bn.beta"])
        for name in fused[2]:
            _assert_bitwise(fused[2][name], split[2][name])
        for a, b in zip(fused_stats, split_stats):
            _assert_bitwise(a, b)

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_upsample_conv_equals_upsample_then_conv(self, rng, kernel):
        """A conv reading an upsample is two plain nodes, with no fused form:
        a trilinear_upsample node and a conv3d node whose parents are that
        node and the weight. Output, input and weight gradients equal the ops
        composed by hand."""
        layer = blocks.Conv3dLayer("head", ops.ConvSpec(3, 4, kernel=kernel, padding=kernel // 2),
                                   rng, np.float32)
        x = rng.standard_normal((2, 3, 3, 4, 2)).astype(np.float32)
        g = rng.standard_normal((2, 4, 6, 8, 4)).astype(np.float32)
        out, (gx,), grads = _sweep(
            lambda t, xv: layer.forward(ag.t_trilinear_upsample(t, xv, 2), tape=t), [x], g)
        up = ops.trilinear_upsample(x, 2)
        w = layer.weight.data
        _assert_bitwise(out, ops.conv3d(up, w, layer.spec))
        _assert_bitwise(gx, ops.trilinear_upsample_grad(
            ops.conv3d_input_grad(g, w, layer.spec, up.shape), x.shape, 2))
        _assert_bitwise(grads["head.weight"], ops.conv3d_weight_grad(up, g, layer.spec))
        tape = ag.GradTape()
        node = layer.forward(ag.t_trilinear_upsample(tape, tape.leaf(x), 2), tape=tape)
        assert node.op == "conv3d" and node.parents[0].op == "trilinear_upsample"
        assert node.parents[1].param is layer.weight
        assert node.rebuild is None and len(tape.nodes) == 4

    def test_upsample_concat_equals_upsample_then_concat(self, rng):
        # batch 2: the upsample's channel slice of the buffer is not contiguous
        x = rng.standard_normal((2, 3, 3, 4, 2)).astype(np.float32)
        skip = rng.standard_normal((2, 2, 6, 8, 4)).astype(np.float32)
        g = rng.standard_normal((2, 5, 6, 8, 4)).astype(np.float32)
        fused = _sweep(lambda t, xv, sv: ag.t_upsample_concat(t, xv, sv, 2), [x, skip], g)
        split = _sweep(lambda t, xv, sv: ag.t_concat_channels(
            t, ag.t_trilinear_upsample(t, xv, 2), sv), [x, skip], g)
        _assert_bitwise(fused[0], split[0])
        for a, b in zip(fused[1], split[1]):
            _assert_bitwise(np.ascontiguousarray(a), np.ascontiguousarray(b))


class TestBatchNormRule:
    """The BN+ReLU backward, run one channel block at a time, equals the
    closed-form rule bit for bit, in a t_batch_norm node and inside a conv, and
    writes into none of its inputs; it agrees with the textbook chain rule in
    float64; its scratch is a few blocks, not volumes."""

    @staticmethod
    def _bn(rng, c, dtype):
        bn = blocks.BatchNorm3d("bn", c, dtype=dtype)
        bn.gamma.data[:] = rng.standard_normal(c)
        bn.beta.data[:] = rng.standard_normal(c)
        bn.running_mean[:] = rng.standard_normal(c)
        bn.running_var[:] = rng.uniform(0.5, 2.0, c)
        return bn

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_textbook_rule(self, rng, monkeypatch, n, mode):
        """In float32 and float64, in one block and in blocks of two
        channels, two and one."""
        for dtype in (np.float32, np.float64):
            for several in (False, True):
                with monkeypatch.context() as mp:
                    if several:
                        mp.setattr(ops, "BLOCK_BYTES", 2 * n * 5 * 6 * 7 * np.dtype(dtype).itemsize)
                    self._check_rule(rng, n, mode, dtype, 3 if several else 1)

    def _check_rule(self, rng, n, mode, dtype, n_blocks):
        bn = self._bn(rng, 5, dtype)
        x = rng.standard_normal((n, 5, 5, 6, 7)).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        assert len(ops.channel_blocks(x)) == n_blocks
        if mode == "train":
            mean, var = x.mean(axis=(0, 2, 3, 4)), x.var(axis=(0, 2, 3, 4))
        else:
            mean, var = bn.running_mean.copy(), bn.running_var.copy()
        tape = ag.GradTape()
        node = ag.t_batch_norm(tape, tape.leaf(x), bn, mode)
        assert 0 < (node.data > 0).mean() < 1
        before = [a.copy() for a in (g, x, node.data)]
        got = node.backward_fn(g)
        want = batch_norm_relu_backward_reference(g, x, node.data, mean, var, bn.gamma.data,
                                                  bn.eps, mode)
        for a, b in zip(got, want):
            _assert_bitwise(a, b)
        for a, b in zip((g, x, node.data), before):
            assert np.array_equal(a, b)
        # inside a conv the mask comes from the apply arithmetic, not a saved
        # output (or, for one block, from the rebuilt operand)
        spec = ops.ConvSpec(5, 5, kernel=1)
        w = rng.standard_normal(spec.weight_shape).astype(dtype)
        conv = ag.t_conv3d(tape, tape.leaf(x), ag.Parameter("w", w), spec, bn=bn, mode=mode)
        dx = conv.backward_fn(g)[0]
        gx = ops.conv3d_input_grad(g, w, spec, x.shape)
        want = batch_norm_relu_backward_reference(gx, x, node.data, mean, var, bn.gamma.data,
                                                  bn.eps, mode)
        _assert_bitwise(dx, want[0])

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_agrees_with_chain_rule(self, rng, n, mode):
        """The closed form and the chain rule through dxhat, dvar and dmean
        are one gradient: in float64 the rule's dx, dgamma and dbeta differ
        from the chain rule's by at most 1e-12 of the largest entry."""
        bn = self._bn(rng, 5, np.float64)
        x = rng.standard_normal((n, 5, 5, 6, 7))
        g = rng.standard_normal(x.shape)
        if mode == "train":
            mean, var = x.mean(axis=(0, 2, 3, 4)), x.var(axis=(0, 2, 3, 4))
        else:
            mean, var = bn.running_mean.copy(), bn.running_var.copy()
        tape = ag.GradTape()
        node = ag.t_batch_norm(tape, tape.leaf(x), bn, mode)
        got = node.backward_fn(g)
        want = batch_norm_relu_backward_chain_rule(g, x, node.data, mean, var, bn.gamma.data,
                                                   bn.eps, mode)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_scratch_is_blocks_not_volumes(self, rng):
        """Beyond its fresh dx, a rule on an 8 MiB volume holds at most three
        blocks at once (xm, t and the mask); the whole-volume rule held two
        more volumes and a full-size mask."""
        bn = self._bn(rng, 64, np.float32)
        x = rng.standard_normal((1, 64, 32, 32, 32)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        assert len(ops.channel_blocks(x)) == x.nbytes // ops.BLOCK_BYTES >= 8
        tape = ag.GradTape()
        node = ag.t_batch_norm(tape, tape.leaf(x), bn, "train")
        tracemalloc.start()
        try:
            node.backward_fn(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.nbytes < peak <= x.nbytes + 3 * ops.BLOCK_BYTES


class TestBandedOperand:
    """``t_conv3d(bn=)`` reads its BN+ReLU operand a band of depth planes at a
    time, on every conv path, and gives the bits of the conv of the whole
    operand; no pass holds an operand-sized array."""

    # (spec, path): padding past same_padding leaves slabs whose taps read no
    # plane inside the volume
    @pytest.mark.parametrize("spec,path", [
        pytest.param(ops.ConvSpec(8, 4, kernel=1), "pointwise", id="pointwise"),
        pytest.param(ops.ConvSpec(8, 4, padding=1, groups=2), "kn2row", id="kn2row"),
        pytest.param(ops.ConvSpec(4, 8, padding=1, groups=2), "im2col", id="im2col"),
        pytest.param(ops.ConvSpec(4, 8, stride=2, padding=1, groups=2), "im2col", id="stride2"),
        pytest.param(ops.ConvSpec(8, 4, kernel=1, stride=2), "im2col", id="pointwise-stride2"),
        pytest.param(ops.ConvSpec(8, 4, dilation=2, padding=2, groups=2), "kn2row",
                     id="kn2row-dilation2"),
        pytest.param(ops.ConvSpec(4, 8, dilation=2, padding=2, groups=2), "im2col",
                     id="im2col-dilation2"),
        pytest.param(ops.ConvSpec(4, 8, stride=2, dilation=3, padding=3, groups=2), "im2col",
                     id="stride2-dilation3"),
        pytest.param(ops.ConvSpec(8, 4, dilation=3, padding=(7, 3, 3), groups=2), "kn2row",
                     id="kn2row-dilation3-past"),
        pytest.param(ops.ConvSpec(4, 8, padding=(4, 1, 1), groups=2), "im2col", id="im2col-past")])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_bands_equal_the_whole_operand(self, rng, monkeypatch, spec, path, mode):
        """SLAB_BYTES holds two planes of the operand and BLOCK_BYTES one, so
        the forward and the weight gradient each read it in several bands, and
        a 3x3x3 slab that reads past its band remakes it. A 1x1x1 conv's
        weight gradient adds its bands' contractions in turn (at stride 2 a
        band is the one plane that a slab of one output plane reads)."""
        x = rng.standard_normal((2, spec.c_in, 9, 8, 6))
        plane = x[:, :, 0].nbytes
        monkeypatch.setattr(ops, "SLAB_BYTES", 2 * plane)
        monkeypatch.setattr(ops, "BLOCK_BYTES", plane)
        assert path == ("pointwise" if ops._pointwise(spec) else
                        "kn2row" if ops._narrowing(spec) else "im2col")
        bn = TestBatchNormRule._bn(rng, spec.c_in, np.float64)
        weight = ag.Parameter("w", rng.standard_normal(spec.weight_shape))
        g = rng.standard_normal((2, spec.c_out) + spec.out_spatial(x.shape[2:]))
        if mode == "train":
            mean, var = ops.batch_norm_stats(x)
        else:
            mean, var = bn.running_mean.copy(), bn.running_var.copy()
        a = ops.batch_norm_apply(x, mean, var, bn.gamma.data, bn.beta.data, bn.eps, relu=True)
        assert 0 < (a > 0).mean() < 1

        depths = []
        apply = ops.batch_norm_apply
        monkeypatch.setattr(ops, "batch_norm_apply",
                            lambda v, *args, **kw: depths.append(v.shape[2]) or apply(v, *args, **kw))
        tape = ag.GradTape()
        node = ag.t_conv3d(tape, tape.leaf(x), weight, spec, bn=bn, mode=mode)
        forward_depths, depths[:] = depths[:], []
        gw = node.backward_fn(g)[1]
        _assert_bitwise(node.data, ops.conv3d(a, weight.data, spec))
        if spec.kernel == (1, 1, 1):
            # bands of two input planes, which at stride 2 give one output plane
            s, step = spec.stride[0], 2 // spec.stride[0]
            parts = [ops.conv3d_weight_grad(a[:, :, z * s:(z + step) * s], g[:, :, z:z + step], spec)
                     for z in range(0, g.shape[2], step)]
            want = parts[0]
            for part in parts[1:]:
                want += part
        else:
            want = ops.conv3d_weight_grad(a, g, spec)
        _assert_bitwise(gw, want)
        # the weight gradient's bands come first; the BN rule's masks follow
        # as channel blocks of the whole depth
        for seen in (forward_depths, depths[:depths.index(9)]):
            assert len(seen) > 2 and max(seen) < 9
        if spec.kernel[0] == 3:  # some planes were made again for a later slab
            assert sum(forward_depths) > 9
        if spec.padding[0] > spec.effective_kernel[0] // 2:  # taps past the volume
            assert not node.data[:, :, 0].any()

    def test_eval_forward_holds_no_operand(self, rng):
        """dec3's first grouped conv (96 -> 16, g16) on a 40.5 MiB operand in
        eval mode holds its output, one slab and one band."""
        spec = ops.ConvSpec(96, 16, kernel=3, padding=1, groups=16)
        x = rng.standard_normal((1, 96, 48, 48, 48), dtype=np.float32)
        bn = TestBatchNormRule._bn(rng, 96, np.float32)
        weight = ag.Parameter("w", rng.standard_normal(spec.weight_shape, dtype=np.float32))
        tracemalloc.start()
        try:
            out = ag.t_conv3d(None, x, weight, spec, bn=bn, mode="eval")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * ops.SLAB_BYTES + (1 << 20) < x.nbytes

    def test_weight_grad_holds_no_operand(self, rng):
        """The same conv's weight gradient, with its operand read by bands,
        holds one slab of grad_out's columns and one band."""
        spec = ops.ConvSpec(96, 16, kernel=3, padding=1, groups=16)
        x = rng.standard_normal((1, 96, 48, 48, 48), dtype=np.float32)
        g = rng.standard_normal((1, 16, 48, 48, 48), dtype=np.float32)
        bn = TestBatchNormRule._bn(rng, 96, np.float32)
        affine = (bn.running_mean, bn.running_var, bn.gamma.data, bn.beta.data, bn.eps)
        tracemalloc.start()
        try:
            gw = ops.conv3d_weight_grad(x, g, spec, bn=affine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gw.nbytes + 2 * ops.SLAB_BYTES + (1 << 20) < x.nbytes


def _op_cases(rng):
    """name -> (fn(tape, *inputs), input arrays) for every traced op and the GDL."""
    def v(*shape):
        return rng.standard_normal(shape)

    spec = ops.ConvSpec(4, 2, kernel=3, padding=1, groups=2)
    conv = blocks.Conv3dLayer("c", spec, rng, dtype=np.float64)
    mux = blocks.Multiplexer("mux", 4, rng, np.float64)
    bn = blocks.BatchNorm3d("bn", 3, dtype=np.float64)
    bn.running_mean[:] = v(3)
    bn2 = blocks.BatchNorm3d("bn2", 2, dtype=np.float64)
    bn4 = blocks.BatchNorm3d("bn4", 4, dtype=np.float64)
    bn4.running_mean[:] = v(4)
    omega = ag.Parameter("omega", v(3))
    frozen = ag.Parameter("frozen", v(2), trainable=False)
    target = rng.choice(CLASS_LABELS, size=(1, 3, 3, 3)).astype(np.uint8)
    return {
        "conv3d": (lambda t, x: ag.t_conv3d(t, x, conv.weight, spec),
                   [v(1, 4, 4, 4, 4)]),
        "conv3d_transposed": (lambda t, x: ag.t_conv3d(t, x, mux.weight, mux.inflate_spec,
                                                       transpose_weight=True),
                              [v(1, 2, 3, 3, 3)]),
        "batch_norm_train": (lambda t, x: ag.t_batch_norm(t, x, bn, "train"), [v(2, 3, 3, 3, 3)]),
        "batch_norm_eval": (lambda t, x: ag.t_batch_norm(t, x, bn, "eval"), [v(2, 3, 3, 3, 3)]),
        "relu": (ag.t_relu, [v(1, 2, 3, 3, 3)]),
        "add": (ag.t_add, [v(1, 2, 3, 3, 3), v(1, 2, 3, 3, 3)]),
        "concat_channels": (ag.t_concat_channels, [v(1, 2, 3, 3, 3), v(1, 3, 3, 3, 3)]),
        "trilinear_upsample": (lambda t, x: ag.t_trilinear_upsample(t, x, 2), [v(1, 2, 2, 3, 2)]),
        "softmax_channels": (ag.t_softmax_channels, [v(1, 4, 3, 3, 3)]),
        "branch_weighted_sum": (lambda t, *ys: ag.t_branch_weighted_sum(t, list(ys), omega),
                                [v(1, 2, 3, 3, 3) for _ in range(3)]),
        "branch_weighted_sum_frozen": (lambda t, *ys: ag.t_branch_weighted_sum(t, list(ys), frozen),
                                       [v(1, 2, 3, 3, 3) for _ in range(2)]),
        "generalized_dice_loss": (lambda t, p: losses.generalized_dice_loss(p, target, tape=t),
                                  [ops.softmax_channels(v(1, 4, 3, 3, 3))]),
        "conv3d_residual": (lambda t, x, r: ag.t_conv3d(t, x, conv.weight, spec, residual=r),
                            [v(1, 4, 4, 4, 4), v(1, 2, 4, 4, 4)]),
        "upsample_concat": (lambda t, x, skip: ag.t_upsample_concat(t, x, skip, 2),
                            [v(2, 2, 2, 3, 2), v(2, 3, 4, 6, 4)]),
        "conv3d_bn_train": (lambda t, x, r: ag.t_conv3d(t, x, mux.weight, mux.inflate_spec, True,
                                                        r, bn=bn2, mode="train"),
                            [v(2, 2, 3, 3, 3), v(2, 4, 3, 3, 3)]),
        "conv3d_bn_eval": (lambda t, x: ag.t_conv3d(t, x, mux.weight, mux.squeeze_spec,
                                                    bn=bn4, mode="eval"),
                           [v(2, 4, 3, 3, 3)]),
    }


def _bad_cases(rng):
    """name -> (fn(tape, *inputs), input arrays) for inputs each op must reject."""
    bn = blocks.BatchNorm3d("bn", 3, dtype=np.float64)
    ys = [rng.standard_normal((1, 2, 3, 3, 3)) for _ in range(3)]
    cases = {f"batch_norm_{mode}_channels": (
        lambda t, x, mode=mode: ag.t_batch_norm(t, x, bn, mode), [ys[0]])
        for mode in ("train", "eval")}
    for n in (2, 4):
        omega = ag.Parameter("omega", np.ones(n))
        cases[f"omega_length_{n}"] = (
            lambda t, *b, omega=omega: ag.t_branch_weighted_sum(t, list(b), omega), ys)
    spec = ops.ConvSpec(2, 2, kernel=1)
    conv = blocks.Conv3dLayer("c", spec, rng, dtype=np.float64)
    cases["conv3d_residual_shape"] = (
        lambda t, x, r: ag.t_conv3d(t, x, conv.weight, spec, residual=r),
        [ys[0], rng.standard_normal((1, 2, 3, 3, 4))])
    cases["conv3d_bn_channels"] = (
        lambda t, x: ag.t_conv3d(t, x, conv.weight, spec, bn=bn), [ys[0]])
    cases["upsample_concat_skip_shape"] = (
        lambda t, x, skip: ag.t_upsample_concat(t, x, skip, 2),
        [ys[0], rng.standard_normal((1, 2, 6, 6, 5))])
    return cases


def _on_tape(tape, inputs):
    return inputs if tape is None else [tape.leaf(x) for x in inputs]


class TestOnePath:
    """Each traced op has one body: untraced it returns what a tape records,
    and it rejects the same inputs with or without a tape."""

    @pytest.mark.parametrize("name", sorted(_op_cases(np.random.default_rng(0))))
    def test_untraced_call_equals_recorded_node(self, rng, name):
        fn, inputs = _op_cases(rng)[name]
        plain = fn(None, *inputs)
        tape = ag.GradTape()
        node = fn(tape, *_on_tape(tape, inputs))
        assert type(plain) is (float if name == "generalized_dice_loss" else np.ndarray)
        assert node is tape.nodes[-1]
        np.testing.assert_array_equal(plain, node.data)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("name", sorted(_bad_cases(np.random.default_rng(0))))
    def test_bad_input_raises_shape_error(self, rng, name, traced):
        fn, inputs = _bad_cases(rng)[name]
        tape = ag.GradTape() if traced else None
        with pytest.raises(ShapeError):
            fn(tape, *_on_tape(tape, inputs))


class TestFiniteDiffCheck:
    def test_requires_float64(self, rng):
        layer = conv_layer(rng, dtype=np.float32)
        with pytest.raises(ConfigError, match="float64"):
            ag.finite_diff_check(layer, rng.standard_normal((1, 2, 4, 4, 4)).astype(np.float32))
        with pytest.raises(ConfigError, match="float64"):
            ag.finite_diff_check(layer, rng.standard_normal((1, 2, 4, 4, 4)))

    def test_pure_linear_block_is_exact(self, rng):
        layer = conv_layer(rng, c_in=2, c_out=3)
        x = rng.standard_normal((1, 2, 4, 4, 4))
        rep = ag.finite_diff_check(layer, x, tolerance=1e-8, step=1e-4,
                                   max_per_tensor=40, rng=0)
        assert rep.passed, str(rep)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_bn_train_mode(self, rng, mode):
        bn = blocks.BatchNorm3d("bn", 3, dtype=np.float64)
        bn.gamma.data[:] = rng.standard_normal(3)
        bn.beta.data[:] = rng.standard_normal(3)
        # eval mode reads these; they are far from the batch's own statistics
        bn.running_mean[:] = rng.standard_normal(3)
        bn.running_var[:] = rng.uniform(0.5, 2.0, 3)
        x = rng.standard_normal((2, 3, 4, 4, 4))
        rep = ag.finite_diff_check(bn, x, tolerance=1e-5, step=1e-5,
                                   max_per_tensor=60, mode=mode, rng=0)
        assert rep.passed, str(rep)

    def test_kink_masking_sees_fused_bn_relu(self, rng):
        """A BN output within one step of 0 is a ReLU kink: probes across it
        are masked, and the rest still pass."""
        bn = blocks.BatchNorm3d("bn", 2, dtype=np.float64)
        x = rng.standard_normal((2, 2, 3, 3, 3))
        rest = x[:, 0].ravel()[1:]
        # the first voxel equals the mean of channel 0: its BN output is 0 up to rounding
        x[0, 0, 0, 0, 0] = rest.sum() / rest.size
        c0 = x[:, 0]
        assert abs(c0.flat[0] - c0.mean()) / c0.std() < 1e-5
        rep = ag.finite_diff_check(bn, x, tolerance=1e-5, step=1e-5,
                                   max_per_tensor=60, rng=0)
        assert rep.passed, str(rep)
        assert sum(r.masked for r in rep.rows) > 0

    def test_kink_masking_sees_bn_inside_a_conv(self, rng):
        """At one voxel per channel the BN output is beta, here exactly 0: a
        beta probe crosses the ReLU kink of a BN+ReLU that lives only inside
        its conv's node, and must be masked for the check to pass."""
        pre = blocks.PreActConv("pre", ops.ConvSpec(2, 3, kernel=3, padding=1), rng, np.float64)
        x = rng.standard_normal((1, 2, 1, 1, 1))
        _, tape = ag.forward_record(pre, x)
        assert [v.op for v in tape.nodes if v.parents] == ["conv3d"]
        rep = ag.finite_diff_check(pre, x, tolerance=1e-5, step=1e-5,
                                   max_per_tensor=60, rng=0)
        assert rep.passed, str(rep)
        assert {r.name: r.masked for r in rep.rows}["pre.bn.beta"] == 2

    def test_bn_buffers_restored(self, rng):
        bn = blocks.BatchNorm3d("bn", 2, dtype=np.float64)
        before = bn.running_mean.copy()
        ag.finite_diff_check(bn, rng.standard_normal((1, 2, 3, 3, 3)),
                             max_per_tensor=4, rng=0)
        np.testing.assert_array_equal(bn.running_mean, before)

    def test_nonfinite_loss_reported(self, rng):
        class Bad:
            def forward(self, x, mode="train", tape=None):
                y = ag.t_relu(tape, x)
                y.data[0, 0, 0, 0, 0] = np.nan
                return y

            def parameters(self):
                return []

            def buffers(self):
                return []

        rep = ag.finite_diff_check(Bad(), rng.standard_normal((1, 1, 2, 2, 2)))
        assert not rep.passed
        assert "finite" in rep.failure
