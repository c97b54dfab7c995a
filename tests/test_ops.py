"""Forward kernel tests: spec'd examples, oracle comparisons and properties."""

import tracemalloc
from math import prod

import numpy as np
import pytest

from dmfnet import blocks, ops
from dmfnet.errors import ConfigError, ShapeError

from oracles import conv3d_grads_reference, conv3d_reference, trilinear_reference


class TestConvSpec:
    def test_groups_must_divide(self):
        with pytest.raises(ConfigError):
            ops.ConvSpec(6, 8, groups=4)
        with pytest.raises(ConfigError):
            ops.ConvSpec(8, 6, groups=4)

    def test_effective_kernel_extent(self):
        spec = ops.ConvSpec(1, 1, kernel=3, dilation=2)
        assert spec.effective_kernel == (5, 5, 5)
        spec = ops.ConvSpec(1, 1, kernel=(3, 3, 1), dilation=(3, 1, 1))
        assert spec.effective_kernel == (7, 3, 1)

    def test_weight_count_formula(self):
        spec = ops.ConvSpec(32, 32, kernel=3, groups=16)
        assert np.prod(spec.weight_shape) == 27 * 32 * 32 // 16

    def test_same_padding(self):
        assert ops.same_padding(3) == (1, 1, 1)
        assert ops.same_padding(3, 2) == (2, 2, 2)
        assert ops.same_padding(3, 3) == (3, 3, 3)
        with pytest.raises(ConfigError):
            ops.same_padding(2)


def _assert_matches_oracle(x, w, spec):
    got = ops.conv3d(x, w, spec)
    ref = conv3d_reference(x.astype(np.float64), w.astype(np.float64), stride=spec.stride,
                           dilation=spec.dilation, padding=spec.padding, groups=spec.groups)
    assert got.shape == ref.shape
    assert (np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)).max() < 1e-5


class TestConv3d:
    def test_all_ones_sums_to_27(self):
        x = np.ones((1, 1, 3, 3, 3), dtype=np.float32)
        w = np.ones((1, 1, 3, 3, 3), dtype=np.float32)
        out = ops.conv3d(x, w, ops.ConvSpec(1, 1, kernel=3))
        assert out.shape == (1, 1, 1, 1, 1)
        assert out[0, 0, 0, 0, 0] == 27.0

    def test_group_isolation(self, rng):
        spec = ops.ConvSpec(2, 2, kernel=3, padding=1, groups=2)
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)
        x = rng.standard_normal((1, 2, 5, 5, 5)).astype(np.float32)
        base = ops.conv3d(x, w, spec)
        x2 = x.copy()
        x2[:, 1] = 0.0
        zeroed = ops.conv3d(x2, w, spec)
        np.testing.assert_array_equal(base[:, 0], zeroed[:, 0])
        assert not np.array_equal(base[:, 1], zeroed[:, 1])

    def test_dilated_impulse_footprint(self):
        x = np.zeros((1, 1, 7, 7, 7), dtype=np.float64)
        x[0, 0, 3, 3, 3] = 1.0
        w = np.ones((1, 1, 3, 3, 3), dtype=np.float64)
        spec = ops.ConvSpec(1, 1, kernel=3, dilation=2)
        out = ops.conv3d(x, w, spec)
        ref = conv3d_reference(x, w, dilation=(2, 2, 2))
        np.testing.assert_array_equal(out, ref)
        # dilated 3-kernel spans 5 voxels; nonzero wherever its footprint hits the impulse
        nz = np.argwhere(out[0, 0] != 0)
        assert len(nz) > 0
        for z, y, xx in nz:
            assert all(abs(v + 2 - 3) <= 2 and (v + 2 - 3) % 2 == 0
                       for v in (z, y, xx))

    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_matches_nested_loop_reference(self, groups, dilation, stride, kernel):
        rng = np.random.default_rng(groups * 100 + dilation * 10 + stride + kernel)
        spec = ops.ConvSpec(4, 4, kernel=kernel, stride=stride, dilation=dilation,
                            padding=ops.same_padding(kernel, dilation), groups=groups)
        size = 8 if dilation > 1 or stride > 1 else 6
        x = rng.standard_normal((1, 4, size, size, size)).astype(np.float32)
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)
        _assert_matches_oracle(x, w, spec)

    def test_groups_equal_independent_convs(self, rng):
        g = 4
        spec = ops.ConvSpec(8, 8, kernel=3, padding=1, groups=g)
        x = rng.standard_normal((2, 8, 6, 6, 6))
        w = rng.standard_normal(spec.weight_shape)
        whole = ops.conv3d(x, w, spec)
        parts = []
        sub = ops.ConvSpec(2, 2, kernel=3, padding=1, groups=1)
        for i in range(g):
            parts.append(ops.conv3d(x[:, 2 * i: 2 * i + 2],
                                    w[2 * i: 2 * i + 2], sub))
        np.testing.assert_array_equal(whole, np.concatenate(parts, axis=1))

    def test_shape_errors_name_the_axis(self):
        spec = ops.ConvSpec(2, 2, kernel=3)
        x = np.zeros((1, 3, 5, 5, 5), dtype=np.float32)
        with pytest.raises(ShapeError, match="channels"):
            ops.conv3d(x, np.zeros(spec.weight_shape, dtype=np.float32), spec)
        tiny = np.zeros((1, 2, 5, 5, 2), dtype=np.float32)
        with pytest.raises(ShapeError, match="axis w"):
            ops.conv3d(tiny, np.zeros(spec.weight_shape, dtype=np.float32), spec)

    def test_deterministic(self, rng):
        spec = ops.ConvSpec(4, 4, kernel=3, padding=1, groups=2)
        x = rng.standard_normal((1, 4, 6, 6, 6)).astype(np.float32)
        w = rng.standard_normal(spec.weight_shape).astype(np.float32)
        a = ops.conv3d(x, w, spec)
        b = ops.conv3d(x.copy(), w.copy(), spec)
        np.testing.assert_array_equal(a, b)


def _assert_adjoint(x, w, spec):
    """<conv3d(x, w), g> == <x, input_grad(g, w)> == <w, weight_grad(x, g)>."""
    y = ops.conv3d(x, w, spec)
    g = np.random.default_rng(7).standard_normal(y.shape)
    expect = np.vdot(y, g)
    gx = ops.conv3d_input_grad(g, w, spec, x.shape)
    gw = ops.conv3d_weight_grad(x, g, spec)
    assert gx.shape == x.shape and gw.shape == w.shape
    np.testing.assert_allclose(np.vdot(x, gx), expect, rtol=1e-12)
    np.testing.assert_allclose(np.vdot(w, gw), expect, rtol=1e-12)


class TestConvBackwardKernels:
    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_adjoint_identities(self, groups, dilation, stride, kernel):
        rng = np.random.default_rng(groups * 100 + dilation * 10 + stride + kernel)
        spec = ops.ConvSpec(4, 8, kernel=kernel, stride=stride, dilation=dilation,
                            padding=ops.same_padding(kernel, dilation), groups=groups)
        # extents differ per axis, and stride 2 leaves some input voxels unread
        x = rng.standard_normal((2, 4, 9, 8, 7))
        w = rng.standard_normal(spec.weight_shape)
        _assert_adjoint(x, w, spec)

    # float64 budgets for a band's columns, in output rows: less than a plane
    # (two cases), which leaves bands of one plane, or two planes and a row,
    # which leaves bands of two planes and a shorter last one. Padding past
    # same_padding puts some taps wholly outside the volume in some bands but
    # not in others.
    @pytest.mark.parametrize("slab_rows", [lambda ho: 3, lambda ho: 2 * ho + 1, lambda ho: 1],
                             ids=["rows", "planes", "row"])
    @pytest.mark.parametrize("stride,dilation,past", [
        pytest.param(1, 1, 0, id="1-1"), pytest.param(2, 2, 0, id="2-2"),
        pytest.param(1, 3, 0, id="1-3"), pytest.param(1, 1, 4, id="1-1-past"),
        pytest.param(2, 2, 4, id="2-2-past"), pytest.param(1, 3, 4, id="1-3-past")])
    def test_several_slabs_match_oracle_and_adjoints(self, monkeypatch, slab_rows,
                                                     stride, dilation, past):
        rng = np.random.default_rng(11)
        spec = ops.ConvSpec(4, 6, kernel=3, stride=stride, dilation=dilation, groups=2,
                            padding=ops.same_padding(3, dilation)[0] + past)
        x = rng.standard_normal((1, 4, 9, 8, 6))
        w = rng.standard_normal(spec.weight_shape)
        do, ho, wo = spec.out_spatial(x.shape[2:])
        row_bytes = x.shape[0] * spec.c_in * 9 * wo * x.itemsize
        monkeypatch.setattr(ops, "SLAB_BYTES", slab_rows(ho) * row_bytes)
        calls = _depth_calls(monkeypatch)
        for _ in ops._depth_slabs(x, ops._views(spec), spec.stride, spec.groups, (do, ho, wo)):
            pass
        (_, sizes), = calls
        assert len(sizes) > 2
        assert sizes[-1] < sizes[0] == 2 if slab_rows(ho) > ho else sizes[-1] == sizes[0] == 1

        _assert_matches_oracle(x, w, spec)
        _assert_adjoint(x, w, spec)

    # each case reaches a tap-selection branch of the input gradient's stride
    # phases: stride 3, per-axis stride, a non-cubic kernel, no padding and
    # padding past same_padding (outputs that read only the zero border)
    @pytest.mark.parametrize("kernel,stride,dilation,padding", [
        (3, 3, 1, 1), (3, 3, 2, 2), ((3, 3, 3), (2, 1, 2), 1, 1), ((3, 1, 3), 2, (2, 1, 1), 0),
        (3, 2, 1, 0), (3, 1, 2, 0), (3, 2, 1, 3), ((3, 1, 3), 1, 1, (2, 1, 3))])
    def test_phase_split_adjoint_identities(self, kernel, stride, dilation, padding):
        rng = np.random.default_rng(5)
        spec = ops.ConvSpec(4, 6, kernel=kernel, stride=stride, dilation=dilation,
                            padding=padding, groups=2)
        x = rng.standard_normal((2, 4, 11, 8, 10))
        w = rng.standard_normal(spec.weight_shape)
        _assert_adjoint(x, w, spec)

    def test_input_rows_read_by_no_output_get_zero_gradient(self):
        rng = np.random.default_rng(6)
        # (10 - 3) // 2 + 1 = 4 outputs read rows 0..8 on every axis; row 9 is never read
        spec = ops.ConvSpec(4, 4, kernel=3, stride=2, padding=0, groups=2)
        x = rng.standard_normal((1, 4, 10, 10, 10))
        w = rng.standard_normal(spec.weight_shape)
        g = rng.standard_normal((1, 4) + spec.out_spatial(x.shape[2:]))
        gx = ops.conv3d_input_grad(g, w, spec, x.shape)
        for axis in (2, 3, 4):
            assert np.all(np.take(gx, 9, axis=axis) == 0.0)
        assert np.all(gx[..., :9, :9, :9] != 0.0)
        _assert_adjoint(x, w, spec)

    def test_scratch_memory_is_bounded(self):
        # the largest 3x3x3 conv of the 1x4x128^3 DMFNet forward (dec3.conv1):
        # its output and one slab, no padded input
        spec = ops.ConvSpec(96, 16, kernel=3, padding=1, groups=16)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 96, 64, 64, 64), dtype=np.float32)
        w = rng.standard_normal(spec.weight_shape, dtype=np.float32)
        out, peak = _traced_peak(lambda: ops.conv3d(x, w, spec))
        assert peak <= out.nbytes + ops.SLAB_BYTES + (1 << 20)

    def test_dilated_strided_scratch_memory_is_bounded(self):
        # the same forward's dilation-3 stride-2 branch (enc1.u0.branch_d3), by depth plane
        spec = ops.ConvSpec(32, 32, kernel=3, stride=2, dilation=3, padding=3, groups=16)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 32, 64, 64, 64), dtype=np.float32)
        w = rng.standard_normal(spec.weight_shape, dtype=np.float32)
        out, peak = _traced_peak(lambda: ops.conv3d(x, w, spec))
        assert peak <= out.nbytes + ops.SLAB_BYTES + (1 << 20)

    def test_input_grad_scratch_memory_is_bounded(self):
        # the input gradient of dec3.conv1: gx and one slab, grad_out read in place
        spec = ops.ConvSpec(96, 16, kernel=3, padding=1, groups=16)
        rng = np.random.default_rng(0)
        g = rng.standard_normal((1, 16, 64, 64, 64), dtype=np.float32)
        w = rng.standard_normal(spec.weight_shape, dtype=np.float32)
        gx, peak = _traced_peak(lambda: ops.conv3d_input_grad(g, w, spec, (1, 96, 64, 64, 64)))
        assert peak <= gx.nbytes + ops.SLAB_BYTES + (1 << 20)

    def test_strided_input_grad_scratch_memory_is_bounded(self):
        # the stem's input gradient (4->32, stride 2) at a 64^3 input: each
        # stride phase reads grad_out in place from its own start, and the
        # phases' scratch copies of gx[..., r::2] fit in the slack
        spec = ops.ConvSpec(4, 32, kernel=3, stride=2, padding=1)
        rng = np.random.default_rng(0)
        g = rng.standard_normal((1, 32, 32, 32, 32), dtype=np.float32)
        w = rng.standard_normal(spec.weight_shape, dtype=np.float32)
        gx, peak = _traced_peak(lambda: ops.conv3d_input_grad(g, w, spec, (1, 4, 64, 64, 64)))
        assert peak <= gx.nbytes + ops.SLAB_BYTES + (1 << 20)


def _depth_calls(monkeypatch, planes=None):
    """A log, from now on, of the passes that contract by depth plane: per
    :func:`ops._depth_slabs` call, its operand and the depth of each band it
    read. With ``planes``, SLAB_BYTES holds that many planes of each call's
    columns and GEMM output."""
    calls = []
    depth_slabs, bands = ops._depth_slabs, ops._bands

    def logged_bands(x, bn, scratch=0):
        for band in bands(x, bn, scratch):
            if calls and calls[-1][0] is x:
                calls[-1][1].append(band[1] - band[0])
            yield band

    def logged(x, views, stride, groups, out_spatial, bn=None, rows=0):
        calls.append((x, []))
        if planes:
            taps = sum(k[1] * k[2] for k, _, _ in views) * x.shape[1] + rows
            monkeypatch.setattr(ops, "SLAB_BYTES",
                                planes * taps * x.shape[0] * prod(out_spatial[1:]) * x.itemsize)
        yield from depth_slabs(x, views, stride, groups, out_spatial, bn, rows)

    monkeypatch.setattr(ops, "_bands", logged_bands)
    monkeypatch.setattr(ops, "_depth_slabs", logged)
    return calls


class TestDepthLowering:
    """Every conv pass that copies columns contracts by depth plane
    (:func:`ops._depth_slabs`): a one-view forward, each stride phase of the
    input gradient and the weight gradient; for a narrowing conv, whose
    forward is kn2row, the weight gradient's columns are grad_out's. Each
    pass matches the loop oracles, in one band, in bands of two planes and in
    bands of one plane."""

    @pytest.mark.parametrize("planes", [None, 2, 1], ids=["one-band", "bands", "one-plane"])
    @pytest.mark.parametrize("c_in,c_out,stride", [(4, 6, 1), (4, 6, 2), (12, 4, 1)],
                             ids=["stride1", "stride2", "narrowing"])
    def test_every_copying_pass_runs_on_depth_bands(self, monkeypatch, planes, c_in, c_out,
                                                     stride):
        rng = np.random.default_rng(13)
        spec = ops.ConvSpec(c_in, c_out, kernel=3, stride=stride, padding=1, groups=2)
        x = rng.standard_normal((2, c_in, 7, 6, 5))
        w = rng.standard_normal(spec.weight_shape)
        g = rng.standard_normal((2, c_out) + spec.out_spatial(x.shape[2:]))
        args = spec.stride, spec.dilation, spec.padding, spec.groups
        gx, gw = conv3d_grads_reference(x, w, g, *args)
        narrow = ops._narrowing(spec)
        calls = _depth_calls(monkeypatch, planes)
        for run, want, operand in [
                (lambda: ops.conv3d(x, w, spec), conv3d_reference(x, w, *args), None if narrow else x),
                (lambda: ops.conv3d_input_grad(g, w, spec, x.shape), gx, g),
                (lambda: ops.conv3d_weight_grad(x, g, spec), gw, g if narrow else x)]:
            calls.clear()
            got = run()
            assert got.shape == want.shape
            assert (np.abs(got - want) / np.maximum(np.abs(want), 1.0)).max() < 1e-12
            if operand is None:  # kn2row
                assert calls == []
                continue
            # one call per stride phase but the even one, whose single centre
            # tap is a 1x1x1 conv that reads grad_out in place; the narrowing
            # weight gradient makes one per input band, each over the depth
            # slice of g that the band's voxels read, from g's first plane on
            sliced = narrow and want is gw
            if sliced:
                first = [(seen.ctypes.data - g.ctypes.data) // g.strides[2] for seen, _ in calls]
                assert first[0] == 0 and first == sorted(first)
                assert first[-1] + calls[-1][0].shape[2] == g.shape[2]
            if not sliced or planes is None:
                assert len(calls) == (7 if want is gx and stride == 2 else 1)
            for seen, bands in calls:
                assert (seen.base is g if sliced else seen is operand)
                assert sum(bands) == seen.shape[2]
                if planes is None:
                    assert len(bands) == 1
                else:
                    assert len(bands) > 1 or sliced
                    assert bands[:-1] == [planes] * (len(bands) - 1) and bands[-1] <= planes


def _traced_peak(f):
    """f() and the peak of the bytes that tracemalloc saw allocated while it ran."""
    tracemalloc.start()
    try:
        out = f()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def _flip_side(monkeypatch):
    """Make every stride-1 conv pass contract on the side the rule does not pick."""
    rule = ops._narrowing
    monkeypatch.setattr(ops, "_narrowing", lambda spec, span=1:
                        spec.stride == (1, 1, 1) and not rule(spec, span))


class TestContractionSide:
    """Each conv pass contracts on its narrow side: kn2row for a narrowing
    stride-1 conv, depth columns otherwise, and no columns for a 1x1x1 stride-1
    unpadded conv. Both sides must give the same convolution."""

    # (c_in, c_out, groups, kernel, stride, span, output side?): the DMFNet
    # and toy convs the rule sends to kn2row, and those that copy columns
    SIDES = [
        (96, 16, 16, 3, 1, 1, True), (272, 64, 16, 3, 1, 1, True), (704, 144, 16, 3, 1, 1, True),
        (128, 32, 16, 3, 1, 1, True), (272, 128, 16, 3, 1, 1, True), (24, 8, 4, 3, 1, 1, True),
        (128, 128, 16, 3, 1, 1, False), (32, 128, 16, 3, 1, 1, False),
        (432, 272, 16, 3, 1, 1, False), (96, 16, 16, 3, 2, 1, False),
        # the weight gradient's output side spans the input's voxels, which
        # for an unpadded conv outnumber the output's: 6^3 / 4^3 times is too
        # many for 56 -> 16
        (96, 16, 16, 3, 1, 34 ** 3 / 32 ** 3, True), (56, 16, 4, 3, 1, 6 ** 3 / 4 ** 3, False),
        # a multiplexer squeeze: neither side of a 1x1x1 stride-1 unpadded conv copies
        (128, 64, 1, 1, 1, 1, False)]

    # an id names the kernel only when it is not 3x3x3
    @pytest.mark.parametrize("c_in,c_out,groups,kernel,stride,span,narrow", SIDES, ids=[
        "-".join(map(str, row[:3] + row[4:])) + ("" if row[3] == 3 else f"-k{row[3]}")
        for row in SIDES])
    def test_side_rule(self, c_in, c_out, groups, kernel, stride, span, narrow):
        spec = ops.ConvSpec(c_in, c_out, kernel=kernel, stride=stride, padding=kernel // 2,
                            groups=groups)
        assert ops._narrowing(spec, span) == narrow

    def test_pointwise_passes_copy_nothing(self):
        # a 128 -> 64 multiplexer squeeze at 32^3: forward, input gradient and
        # weight gradient each hold their result and no column buffer
        spec = ops.ConvSpec(128, 64, kernel=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 128, 32, 32, 32), dtype=np.float32)
        w = rng.standard_normal(spec.weight_shape, dtype=np.float32)
        g = rng.standard_normal((1, 64, 32, 32, 32), dtype=np.float32)
        for run in (lambda: ops.conv3d(x, w, spec),
                    lambda: ops.conv3d_input_grad(g, w, spec, x.shape),
                    lambda: ops.conv3d_weight_grad(x, g, spec)):
            out, peak = _traced_peak(run)
            assert peak <= out.nbytes + (1 << 20)

    @pytest.mark.parametrize("c_in,c_out", [(8, 4), (4, 4), (4, 8)],
                             ids=["narrowing", "square", "widening"])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3])
    def test_both_sides_match_oracle_and_adjoints(self, monkeypatch, c_in, c_out, groups,
                                                  dilation, stride, kernel):
        rng = np.random.default_rng(groups * 100 + dilation * 10 + stride + kernel + c_in)
        spec = ops.ConvSpec(c_in, c_out, kernel=kernel, stride=stride, dilation=dilation,
                            padding=ops.same_padding(kernel, dilation), groups=groups)
        x = rng.standard_normal((2, c_in, 7, 6, 5) if stride == 1 else (1, c_in, 9, 8, 7))
        w = rng.standard_normal(spec.weight_shape)
        _assert_matches_oracle(x, w, spec)
        _assert_adjoint(x, w, spec)
        _flip_side(monkeypatch)
        _assert_matches_oracle(x, w, spec)
        _assert_adjoint(x, w, spec)

    # a 1x1x1 conv that is strided or padded has columns other than its operand
    @pytest.mark.parametrize("c_in,c_out,stride,padding", [
        (8, 4, 2, 0), (4, 8, 2, 0), (8, 4, 1, 1), (4, 8, 1, (1, 0, 2))])
    def test_strided_or_padded_pointwise_convs(self, monkeypatch, c_in, c_out, stride, padding):
        rng = np.random.default_rng(3)
        spec = ops.ConvSpec(c_in, c_out, kernel=1, stride=stride, padding=padding, groups=2)
        assert not ops._pointwise(spec)
        x = rng.standard_normal((2, c_in, 7, 6, 5))
        w = rng.standard_normal(spec.weight_shape)
        _assert_matches_oracle(x, w, spec)
        _assert_adjoint(x, w, spec)
        _flip_side(monkeypatch)
        _assert_matches_oracle(x, w, spec)
        _assert_adjoint(x, w, spec)

    # float64 budgets for kn2row's Y, in rows of the input's width: two
    # planes and a row, which leaves bands of two planes and a shorter last
    # one, or less than one plane, which leaves one-plane bands over budget
    @pytest.mark.parametrize("budget_rows", [lambda hi: 2 * hi + 1, lambda hi: hi - 1],
                             ids=["planes", "rows"])
    @pytest.mark.parametrize("dilation", [1, 2])
    def test_kn2row_slabs_match_oracle_and_adjoints(self, monkeypatch, budget_rows, dilation):
        rng = np.random.default_rng(12)
        spec = ops.ConvSpec(12, 4, kernel=3, dilation=dilation,
                            padding=ops.same_padding(3, dilation), groups=2)
        assert ops._narrowing(spec)
        x = rng.standard_normal((1, 12, 9, 7, 6))
        w = rng.standard_normal(spec.weight_shape)
        row_bytes = x.shape[0] * spec.c_out * 9 * x.shape[4] * x.itemsize
        monkeypatch.setattr(ops, "SLAB_BYTES", budget_rows(x.shape[3]) * row_bytes)
        depths, bands = [], ops._bands

        def logged(*args):
            for band in bands(*args):
                depths.append(band[1] - band[0])
                yield band

        monkeypatch.setattr(ops, "_bands", logged)
        ops.conv3d(x, w, spec)
        assert depths == ([2, 2, 2, 2, 1] if budget_rows(x.shape[3]) > x.shape[3] else [1] * 9)
        _assert_matches_oracle(x, w, spec)
        _assert_adjoint(x, w, spec)

    def test_narrowing_weight_grad_scratch_memory_is_bounded(self):
        # dec3.conv1 at the 64^3 training crop: columns come from grad_out
        # and the input is contracted in place, neither padded
        spec = ops.ConvSpec(96, 16, kernel=3, padding=1, groups=16)
        assert ops._narrowing(spec)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 96, 32, 32, 32), dtype=np.float32)
        g = rng.standard_normal((1, 16, 32, 32, 32), dtype=np.float32)
        gw, peak = _traced_peak(lambda: ops.conv3d_weight_grad(x, g, spec))
        assert peak <= gw.nbytes + ops.SLAB_BYTES + (1 << 20)

    def test_narrowing_bn_weight_grad_scratch_memory_is_bounded(self):
        # the same pass reading its operand's BN+ReLU: one band of it and one
        # slab of grad_out's columns, each band's columns gone before the next
        spec = ops.ConvSpec(96, 16, kernel=3, padding=1, groups=16)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 96, 32, 32, 32), dtype=np.float32)
        g = rng.standard_normal((1, 16, 32, 32, 32), dtype=np.float32)
        bn = (rng.standard_normal(96, dtype=np.float32), rng.uniform(0.5, 2, 96).astype(np.float32),
              rng.standard_normal(96, dtype=np.float32), rng.standard_normal(96, dtype=np.float32),
              1e-5)
        gw, peak = _traced_peak(lambda: ops.conv3d_weight_grad(x, g, spec, bn=bn))
        assert peak <= gw.nbytes + 2 * ops.SLAB_BYTES + (1 << 20)


class TestDilatedViews:
    """A conv over several dilated views of one operand (a DMF unit's three
    branches as one conv) is the sum of its one-view convs."""

    RATES = (1, 2, 3)

    def _specs(self, c_in, c_out, stride, groups):
        singles = [ops.ConvSpec(c_in, c_out, kernel=3, stride=stride, dilation=d,
                                padding=ops.same_padding(3, d), groups=groups) for d in self.RATES]
        merged = ops.ConvSpec(c_in, c_out, kernel=3, stride=stride, groups=groups,
                              views=tuple((s.dilation, s.padding) for s in singles))
        return singles, merged

    def test_spec(self):
        singles, merged = self._specs(8, 4, 2, 2)
        assert merged.weight_shape == (4, 12, 3, 3, 3)
        assert merged.kernel == (3, 3, 3) and merged.dilation == (1, 1, 1)
        assert merged.effective_kernel == (7, 7, 7)
        assert merged.out_spatial((9, 8, 7)) == singles[2].out_spatial((9, 8, 7)) == (5, 4, 4)
        with pytest.raises(ConfigError, match="output extents"):
            ops.ConvSpec(8, 4, kernel=3, views=((1, 1), (2, 1)))

    # c_in == c_mid, as in every DMF unit, and c_in > 2 * c_mid, whose
    # one-view stride-1 convs run as kn2row
    @pytest.mark.parametrize("c_in,c_mid,groups", [(8, 8, 2), (12, 4, 2)], ids=["square", "narrowing"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("slab_planes", [None, 2], ids=["one-slab", "bands"])
    def test_views_equal_the_sum_of_single_view_convs(self, monkeypatch, rng, c_in, c_mid, groups,
                                                      stride, slab_planes):
        singles, merged = self._specs(c_in, c_mid, stride, groups)
        assert not ops._narrowing(merged)
        assert ops._narrowing(singles[0]) == (stride == 1 and c_in > 2 * c_mid)
        x = rng.standard_normal((2, c_in, 9, 8, 7))
        if slab_planes:  # slabs and BN+ReLU bands of a few planes
            monkeypatch.setattr(ops, "SLAB_BYTES", slab_planes * x[:, :, 0].nbytes)
        ws = [rng.standard_normal(s.weight_shape) for s in singles]
        w = np.concatenate(ws, axis=1)
        y = ops.conv3d(x, w, merged)
        g = rng.standard_normal(y.shape)
        close = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(y, sum(ops.conv3d(x, wi, s) for wi, s in zip(ws, singles)),
                                   **close)
        np.testing.assert_allclose(
            ops.conv3d_input_grad(g, w, merged, x.shape),
            sum(ops.conv3d_input_grad(g, wi, s, x.shape) for wi, s in zip(ws, singles)), **close)
        np.testing.assert_allclose(
            ops.conv3d_weight_grad(x, g, merged),
            np.concatenate([ops.conv3d_weight_grad(x, g, s) for s in singles], axis=1), **close)
        # read through a BN affine, a band of planes at a time, the passes
        # equal those over the whole BN+ReLU operand
        bn = (rng.standard_normal(c_in), rng.uniform(0.5, 2, c_in), rng.standard_normal(c_in),
              rng.standard_normal(c_in), 1e-5)
        a = ops.batch_norm_apply(x, *bn, relu=True)
        np.testing.assert_array_equal(ops.conv3d(x, w, merged, bn=bn), ops.conv3d(a, w, merged))
        np.testing.assert_array_equal(ops.conv3d_weight_grad(x, g, merged, bn=bn),
                                      ops.conv3d_weight_grad(a, g, merged))


class TestBatchNorm:
    def test_identity_on_standardized_input(self, rng):
        x = rng.standard_normal((4, 3, 6, 6, 6)).astype(np.float64)
        x = (x - x.mean(axis=(0, 2, 3, 4), keepdims=True)) / x.std(axis=(0, 2, 3, 4), keepdims=True)
        bn = blocks.BatchNorm3d("bn", 3, dtype=np.float64)
        out = ops.batch_norm(x, bn, mode="train")
        # eps=1e-5 inside the sqrt scales outputs by 1/sqrt(1+eps)
        np.testing.assert_allclose(out, x, atol=1e-5, rtol=1e-5)

    def test_gamma_zero_gives_beta(self, rng):
        bn = blocks.BatchNorm3d("bn", 2, dtype=np.float64)
        bn.gamma.data[:] = 0.0
        bn.beta.data[:] = (1.5, -2.5)
        out = ops.batch_norm(rng.standard_normal((1, 2, 3, 3, 3)), bn, mode="train")
        np.testing.assert_allclose(out[:, 0], 1.5)
        np.testing.assert_allclose(out[:, 1], -2.5)

    def test_train_statistics(self, rng):
        x = rng.standard_normal((2, 3, 4, 4, 4)).astype(np.float64) * 3.0 + 1.0
        bn = blocks.BatchNorm3d("bn", 3, dtype=np.float64)
        out = ops.batch_norm(x, bn, mode="train")
        # recompute independently: per-channel moments of the output
        for c in range(3):
            vals = out[:, c]
            assert abs(vals.mean()) < 1e-5
            assert abs(vals.var() - 1.0) < 1e-4

    def test_running_stats_updated_and_used(self, rng):
        x = rng.standard_normal((2, 2, 4, 4, 4)).astype(np.float64) + 5.0
        bn = blocks.BatchNorm3d("bn", 2, dtype=np.float64)
        ops.batch_norm(x, bn, mode="train")
        mean, var = ops.batch_norm_stats(x)
        np.testing.assert_allclose(bn.running_mean, 0.1 * mean)
        np.testing.assert_allclose(bn.running_var, 0.9 + 0.1 * var)
        out = ops.batch_norm(x, bn, mode="eval")
        expect = ops.batch_norm_apply(x, bn.running_mean, bn.running_var,
                                      bn.gamma.data, bn.beta.data, bn.eps)
        np.testing.assert_array_equal(out, expect)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 3, 5, 6, 7), (2, 4, 5, 4, 6), (3, 2, 9, 9, 9),
                                       (1, 1, 1, 1, 1), (2, 16, 17, 19, 23)])
    def test_stats_equal_numpy_mean_and_var(self, rng, shape, dtype):
        x = (rng.standard_normal(shape) * 3 + 1.7).astype(dtype)
        for got, want in zip(ops.batch_norm_stats(x), (x.mean(axis=(0, 2, 3, 4)),
                                                       x.var(axis=(0, 2, 3, 4)))):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("blocking", ["one", "several", "real"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2])
    def test_blocked_passes_equal_unblocked(self, rng, monkeypatch, n, dtype, blocking):
        """Statistics and apply (+ReLU), run channel block by channel block,
        equal numpy's mean and var and the whole-volume formula bit for bit:
        in one block, in blocks of two channels and one (the last), and at
        the real BLOCK_BYTES on a volume that splits into several."""
        shape = (n, 12, 32, 32, 32) if blocking == "real" else (n, 5, 6, 7, 8)
        x = (rng.standard_normal(shape) * 3 + 1.7).astype(dtype)
        if blocking == "several":
            monkeypatch.setattr(ops, "BLOCK_BYTES", 2 * x.nbytes // shape[1])
        n_blocks = len(ops.channel_blocks(x))
        assert n_blocks == 1 if blocking == "one" else n_blocks > 1
        axes = (0, 2, 3, 4)
        mean, var = ops.batch_norm_stats(x)
        for got, want in zip((mean, var), (x.mean(axis=axes), x.var(axis=axes))):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        gamma = rng.standard_normal(shape[1]).astype(dtype)
        beta = rng.standard_normal(shape[1]).astype(dtype)
        scale = gamma / np.sqrt(var + 1e-5)
        want = x * scale.reshape(1, -1, 1, 1, 1)
        want += (beta - mean * scale).reshape(1, -1, 1, 1, 1)
        got = ops.batch_norm_apply(x, mean, var, gamma, beta, 1e-5)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        got = ops.batch_norm_apply(x, mean, var, gamma, beta, 1e-5, relu=True)
        assert 0 < (got > 0).mean() < 1
        assert got.tobytes() == np.maximum(want, 0).tobytes()

    def test_zero_spatial_extent_rejected(self):
        bn = blocks.BatchNorm3d("bn", 2)
        with pytest.raises(ShapeError):
            ops.batch_norm(np.zeros((1, 2, 0, 3, 3), dtype=np.float32), bn)


class TestRelu:
    def test_negative_to_zero(self):
        np.testing.assert_array_equal(ops.relu(np.full((1, 1, 2, 2, 2), -3.0)), 0.0)

    def test_nonnegative_identity(self, rng):
        x = np.abs(rng.standard_normal((1, 2, 3, 3, 3)))
        np.testing.assert_array_equal(ops.relu(x), x)

    def test_matches_scalar_loop(self, rng):
        x = rng.standard_normal((1, 2, 3, 3, 3))
        expect = np.array([v if v > 0 else 0.0 for v in x.ravel()]).reshape(x.shape)
        np.testing.assert_array_equal(ops.relu(x), expect)


class TestTrilinearUpsample:
    def test_constant_stays_constant(self):
        x = np.full((1, 2, 3, 3, 3), 7.5, dtype=np.float32)
        out = ops.trilinear_upsample(x, 2)
        assert out.shape == (1, 2, 6, 6, 6)
        np.testing.assert_allclose(out, 7.5)

    def test_unit_scale_is_identity(self, rng):
        x = rng.standard_normal((1, 2, 3, 4, 5))
        np.testing.assert_array_equal(ops.trilinear_upsample(x, 1), x)

    def test_ramp_matches_scalar_oracle(self):
        x = np.zeros((1, 1, 2, 2, 2), dtype=np.float64)
        x[0, 0] = np.arange(2).reshape(2, 1, 1)  # linear ramp along d
        got = ops.trilinear_upsample(x, 2)
        ref = trilinear_reference(x, (2, 2, 2))
        np.testing.assert_allclose(got, ref, atol=1e-12)
        # closed form along the ramp axis: (0.5+i)/2 - 0.5 clamped -> 0, .25, .75, 1
        np.testing.assert_allclose(got[0, 0, :, 0, 0], [0.0, 0.25, 0.75, 1.0])

    @pytest.mark.parametrize("scale", [(2, 2, 2), (3, 1, 2), (2, 3, 1)])
    def test_random_matches_scalar_oracle(self, scale, rng):
        x = rng.standard_normal((2, 2, 3, 4, 2))
        got = ops.trilinear_upsample(x, scale)
        ref = trilinear_reference(x, scale)
        assert np.abs(got - ref).max() < 1e-6

    @pytest.mark.parametrize("scale", [2, 3, (1, 2, 3)])
    def test_grad_is_exact_adjoint(self, scale):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 3, 5, 3, 7))
        y = ops.trilinear_upsample(x, scale)
        g = rng.standard_normal(y.shape)
        gx = ops.trilinear_upsample_grad(g, x.shape, scale)
        assert gx.shape == x.shape
        np.testing.assert_allclose(np.vdot(x, gx), np.vdot(y, g), rtol=1e-12)

    def test_grad_scratch_memory_is_bounded(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((1, 16, 64, 64, 64), dtype=np.float32)
        # one channel after its w product: (64, 64, 32)
        intermediate = g.itemsize * 64 * 64 * 32
        tracemalloc.start()
        try:
            gx = ops.trilinear_upsample_grad(g, (1, 16, 32, 32, 32), 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= gx.nbytes + intermediate + (1 << 20)

    def test_writes_into_a_channel_slice(self, rng):
        # batch 2: buf[:, :3] is not contiguous, but each of its volumes is
        x = rng.standard_normal((2, 3, 3, 4, 2)).astype(np.float32)
        buf = np.full((2, 5, 6, 8, 4), np.nan, dtype=np.float32)
        got = ops.trilinear_upsample(x, 2, out=buf[:, :3])
        assert np.shares_memory(got, buf)
        np.testing.assert_array_equal(buf[:, :3], ops.trilinear_upsample(x, 2))
        assert np.isnan(buf[:, 3:]).all()

    @pytest.mark.parametrize("out", [
        np.empty((2, 3, 6, 8, 5), np.float32),
        np.empty((2, 3, 6, 8, 4), np.float64),
        np.empty((2, 3, 6, 8, 8), np.float32)[..., ::2],  # volumes not contiguous
    ], ids=["shape", "dtype", "strided"])
    def test_rejects_an_out_that_does_not_fit(self, rng, out):
        x = rng.standard_normal((2, 3, 3, 4, 2)).astype(np.float32)
        with pytest.raises(ShapeError):
            ops.trilinear_upsample(x, 2, out=out)

    def test_preserves_bounds(self, rng):
        x = rng.standard_normal((1, 3, 4, 4, 4))
        out = ops.trilinear_upsample(x, (2, 3, 2))
        assert out.min() >= x.min() - 1e-12
        assert out.max() <= x.max() + 1e-12


class TestElementwise:
    def test_concat_and_slice_roundtrip(self, rng):
        a = rng.standard_normal((1, 2, 3, 3, 3))
        b = rng.standard_normal((1, 3, 3, 3, 3))
        cat = ops.concat_channels(a, b)
        assert cat.shape[1] == 5
        np.testing.assert_array_equal(cat[:, :2], a)
        np.testing.assert_array_equal(cat[:, 2:], b)

    def test_concat_ordering(self):
        a = np.full((1, 1, 2, 2, 2), 1.0)
        b = np.full((1, 1, 2, 2, 2), 2.0)
        cat = ops.concat_channels(a, b)
        assert cat[0, 0, 0, 0, 0] == 1.0 and cat[0, 1, 0, 0, 0] == 2.0

    def test_concat_rejects_mismatch(self):
        with pytest.raises(ShapeError):
            ops.concat_channels(np.zeros((1, 1, 2, 2, 2)), np.zeros((1, 1, 3, 2, 2)))

    def test_add_identity_and_commutative(self, rng):
        x = rng.standard_normal((1, 2, 2, 2, 2))
        z = np.zeros_like(x)
        np.testing.assert_array_equal(ops.add(x, z), x)
        y = rng.standard_normal(x.shape)
        np.testing.assert_array_equal(ops.add(x, y), ops.add(y, x))

    def test_add_matches_scalar_loop(self, rng):
        a = rng.standard_normal((1, 1, 2, 2, 2))
        b = rng.standard_normal((1, 1, 2, 2, 2))
        expect = np.array([u + v for u, v in zip(a.ravel(), b.ravel())]).reshape(a.shape)
        np.testing.assert_array_equal(ops.add(a, b), expect)


class TestSoftmax:
    def test_single_channel_is_ones(self, rng):
        x = rng.standard_normal((1, 1, 3, 3, 3))
        np.testing.assert_allclose(ops.softmax_channels(x), 1.0)

    def test_channels_sum_to_one(self, rng):
        x = rng.standard_normal((2, 4, 3, 3, 3)) * 10
        p = ops.softmax_channels(x)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_uniform_logits(self):
        x = np.zeros((1, 4, 2, 2, 2))
        np.testing.assert_allclose(ops.softmax_channels(x), 0.25)
