"""Multiplexer, MF unit and DMF unit: topology, parameter algebra, degeneracies."""

import tracemalloc

import numpy as np
import pytest

from dmfnet import analysis, autograd as ag, blocks, ops
from dmfnet.errors import ConfigError

from helpers import with_random_stats


def conv_params(block):
    rep = analysis.count_flops(block)
    return sum(r.params for r in rep.rows if r.kind == "conv")


def fiber_body_params(unit):
    rep = analysis.count_flops(unit)
    return sum(r.params for r in rep.rows
               if r.kind == "conv" and (".conv1." in r.name or ".conv2." in r.name
                                        or ".branch_d" in r.name))


class TestMultiplexer:
    def test_param_identity_16_channels(self, rng):
        mux = blocks.Multiplexer("mux", 16, rng)
        assert conv_params(mux) == 128  # 16^2 / 2

    @pytest.mark.parametrize("c_in", range(2, 65, 2))
    def test_param_identity_all_even_widths(self, c_in, rng):
        mux = blocks.Multiplexer("mux", c_in, rng)
        assert conv_params(mux) == c_in * c_in // 2

    def test_odd_width_rejected(self, rng):
        with pytest.raises(ConfigError, match="even"):
            blocks.Multiplexer("mux", 5, rng)

    def test_zero_weights_pass_input_through(self, rng):
        mux = blocks.Multiplexer("mux", 8, rng)
        mux.weight.data[:] = 0.0
        x = rng.standard_normal((1, 8, 4, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(mux.forward(x, mode="train"), x)
        np.testing.assert_array_equal(mux.forward(x, mode="eval"), x)

    def test_matches_hand_computed_matrices(self, rng):
        """4-channel mux on a single voxel == s^2*(W^T W)x + x, small-matrix math."""
        mux = blocks.Multiplexer("mux", 4, rng, np.float64)
        w = np.array([[0.3, 0.1, 0.2, 0.4],
                      [0.1, 0.5, 0.3, 0.2]])  # squeeze matrix, 2x4
        mux.weight.data[...] = w.reshape(2, 4, 1, 1, 1)
        x = np.array([1.0, 2.0, 0.5, 1.5])
        # eval mode with fresh stats: BN is x -> x/sqrt(1+eps); inputs stay positive
        s = 1.0 / np.sqrt(1.0 + 1e-5)
        squeezed = w @ (s * x)
        assert (squeezed > 0).all()
        hand = w.T @ (s * squeezed) + x
        got = mux.forward(x.reshape(1, 4, 1, 1, 1), mode="eval")
        np.testing.assert_allclose(got.ravel(), hand, rtol=1e-12)


class TestMFUnit:
    def test_fiber_body_params_grouped_vs_plain(self, rng):
        cfg4 = blocks.MFUnitConfig(16, 16, 16, g=4)
        cfg1 = blocks.MFUnitConfig(16, 16, 16, g=1)
        u4 = blocks.MFUnit("mf", cfg4, rng)
        u1 = blocks.MFUnit("mf", cfg1, rng)
        assert fiber_body_params(u4) == 27 * (256 + 256) // 4 == 3456
        assert fiber_body_params(u1) == 27 * (256 + 256) == 13824

    @pytest.mark.parametrize("seed", range(6))
    def test_grouping_divides_fiber_body_exactly(self, seed):
        rng = np.random.default_rng(seed)
        g = int(rng.choice([2, 4, 8, 16]))
        c_in, c_mid, c_out = (int(rng.integers(1, 5)) * g * 2 for _ in range(3))
        grouped = blocks.MFUnit("mf", blocks.MFUnitConfig(c_in, c_mid, c_out, g=g), rng)
        plain = blocks.MFUnit("mf", blocks.MFUnitConfig(c_in, c_mid, c_out, g=1), rng)
        assert fiber_body_params(plain) % g == 0
        assert fiber_body_params(grouped) == fiber_body_params(plain) // g

    def test_stride_two_halves_spatial_dims(self, rng):
        cfg = blocks.MFUnitConfig(8, 8, 8, g=2, stride=2)
        unit = blocks.MFUnit("mf", cfg, rng)
        out = unit.forward(rng.standard_normal((1, 8, 16, 16, 16)).astype(np.float32))
        assert out.shape == (1, 8, 8, 8, 8)

    def test_identity_shortcut_when_shape_preserved(self, rng):
        unit = blocks.MFUnit("mf", blocks.MFUnitConfig(8, 8, 8, g=2), rng)
        assert unit.shortcut is None
        proj = blocks.MFUnit("mf", blocks.MFUnitConfig(8, 8, 16, g=2), rng)
        assert proj.shortcut is not None
        assert proj.shortcut.spec.groups == 2
        assert proj.shortcut.spec.kernel == (1, 1, 1)

    def test_group_isolation_in_fiber_convs(self, rng):
        """Perturbing input group j moves only group-j channels of the grouped convs."""
        cfg = blocks.MFUnitConfig(8, 8, 8, g=2)
        unit = blocks.MFUnit("mf", cfg, rng)
        conv = unit.conv1.conv
        x = rng.standard_normal((1, 8, 5, 5, 5)).astype(np.float32)
        base = conv.forward(x)
        x2 = x.copy()
        x2[:, 4:] += 1.0  # perturb group 1
        out = conv.forward(x2)
        np.testing.assert_array_equal(base[:, :4], out[:, :4])
        assert not np.array_equal(base[:, 4:], out[:, 4:])

    def test_divisibility_validation(self):
        with pytest.raises(ConfigError):
            blocks.MFUnitConfig(12, 16, 16, g=8)
        with pytest.raises(ConfigError, match="even"):
            blocks.MFUnitConfig(3, 3, 3, g=3)


def copy_mf_from_dmf(dmf, mf, branch=0):
    """Make an MF unit compute the DMF unit's branch-`branch` path."""
    mf.mux.weight.data[...] = dmf.mux.weight.data
    for src, dst in ((dmf.mux.bn_squeeze, mf.mux.bn_squeeze),
                     (dmf.mux.bn_inflate, mf.mux.bn_inflate),
                     (dmf.bn1, mf.conv1.bn),
                     (dmf.conv2.bn, mf.conv2.bn)):
        dst.gamma.data[...] = src.gamma.data
        dst.beta.data[...] = src.beta.data
        dst.running_mean[...] = src.running_mean
        dst.running_var[...] = src.running_var
    mf.conv1.conv.weight.data[...] = dmf.branches[branch].weight.data
    mf.conv2.conv.weight.data[...] = dmf.conv2.conv.weight.data
    if dmf.shortcut is not None:
        mf.shortcut.weight.data[...] = dmf.shortcut.weight.data


class TestDMFUnit:
    def test_omega_one_initialized(self, rng):
        unit = blocks.DMFUnit("dmf", blocks.DMFUnitConfig(8, 8, 8, g=2), rng)
        np.testing.assert_array_equal(unit.omega.data, 1.0)

    def test_init_output_is_plain_branch_sum(self, rng):
        """At omega=(1,1,1), the mix equals y1+y2+y3 exactly."""
        unit = blocks.DMFUnit("dmf", blocks.DMFUnitConfig(4, 4, 4, g=2), rng, np.float64)
        x = rng.standard_normal((1, 4, 6, 6, 6))
        h = unit.mux.forward(x, mode="eval")
        a = ops.relu(ops.batch_norm(h, unit.bn1, mode="eval"))
        ys = [b.forward(a, mode="eval") for b in unit.branches]
        from dmfnet import autograd as ag
        mix = ag.t_branch_weighted_sum(None, ys, unit.omega)
        np.testing.assert_array_equal(mix, 1.0 * ys[0] + 1.0 * ys[1] + 1.0 * ys[2])

    @pytest.mark.parametrize("stride,cin,cout", [(1, 8, 8), (2, 8, 8), (1, 8, 16)])
    def test_degenerates_to_mf_unit(self, stride, cin, cout, rng):
        """omega=(1,0,0) makes the DMF unit equal a weight-copied MF unit."""
        dcfg = blocks.DMFUnitConfig(cin, min(cin, cout), cout, g=2, stride=stride)
        mcfg = blocks.MFUnitConfig(cin, min(cin, cout), cout, g=2, stride=stride)
        dmf = blocks.DMFUnit("dmf", dcfg, rng)
        mf = blocks.MFUnit("mf", mcfg, np.random.default_rng(999))
        copy_mf_from_dmf(dmf, mf)
        dmf.omega.data[...] = (1.0, 0.0, 0.0)
        x = np.random.default_rng(5).standard_normal((1, cin, 8, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(dmf.forward(x, mode="eval"),
                                      mf.forward(x, mode="eval"))

    def test_param_count_vs_mf(self, rng):
        """DMF = MF + two extra branch convs + three scalars."""
        dcfg = blocks.DMFUnitConfig(16, 16, 32, g=4)
        mcfg = blocks.MFUnitConfig(16, 16, 32, g=4)
        dmf_p = analysis.count_flops(blocks.DMFUnit("dmf", dcfg, rng)).total_params
        mf_p = analysis.count_flops(blocks.MFUnit("mf", mcfg, rng)).total_params
        branch = 27 * 16 * 16 // 4
        assert dmf_p == mf_p + 2 * branch + 3

    def test_output_homogeneous_in_omega(self, rng):
        """Doubling every omega doubles (output - shortcut) at fresh eval stats."""
        unit = blocks.DMFUnit("dmf", blocks.DMFUnitConfig(8, 8, 8, g=2), rng, np.float64)
        x = rng.standard_normal((1, 8, 6, 6, 6))
        unit.omega.data[...] = (0.7, 1.3, 0.4)
        y1 = unit.forward(x, mode="eval") - x
        unit.omega.data[...] = (1.4, 2.6, 0.8)
        y2 = unit.forward(x, mode="eval") - x
        np.testing.assert_allclose(y2, 2.0 * y1, rtol=1e-10, atol=1e-12)

    def test_dilation_rates_validated(self):
        with pytest.raises(ConfigError, match="distinct"):
            blocks.DMFUnitConfig(8, 8, 8, g=2, dilation_rates=(1, 2, 2))
        with pytest.raises(ConfigError, match="weight_mode"):
            blocks.DMFUnitConfig(8, 8, 8, g=2, weight_mode="other")

    def test_fixed_equal_mode_freezes_omega(self, rng):
        cfg = blocks.DMFUnitConfig(8, 8, 8, g=2, weight_mode="fixed_equal")
        unit = blocks.DMFUnit("dmf", cfg, rng)
        assert not unit.omega.trainable
        np.testing.assert_array_equal(unit.omega.data, 1.0)


class TestEvalBands:
    """Untaped in eval mode the multiplexer runs a band of depth planes at a
    time, and a unit told it owns its input lets it write over it. Both give
    the recorded eval forward's very bits."""

    @pytest.fixture(autouse=True)
    def odd_bands(self, monkeypatch):
        # three planes of the 16-channel batch-2 inputs below: 7 depth planes
        # make bands of 3, 3 and 1, and the recorded inflate reads bands of 6
        monkeypatch.setattr(ops, "SLAB_BYTES", 3 * 2 * 16 * 6 * 5 * 4)

    def test_encoder_unit_output_is_fresh(self, rng):
        cfg = blocks.DMFUnitConfig(16, 16, 32, g=4, stride=2)
        unit = with_random_stats(blocks.DMFUnit("enc", cfg, rng), rng)
        x = rng.standard_normal((2, 16, 7, 6, 5)).astype(np.float32)
        assert ops.band_planes(x) == 3
        keep = x.copy()
        ref = ag.forward_record(unit, x, mode="eval")[0]
        mux_ref = ag.forward_record(unit.mux, x, mode="eval")[0]
        assert unit.mux.forward(x, mode="eval").tobytes() == mux_ref.tobytes()
        assert unit.forward(x, mode="eval").tobytes() == ref.tobytes()
        assert x.tobytes() == keep.tobytes()

    def test_decoder_unit_writes_over_its_input(self, rng):
        unit = with_random_stats(blocks.MFUnit("dec", blocks.MFUnitConfig(16, 8, 8, g=4), rng),
                                 rng)
        x = rng.standard_normal((2, 16, 7, 6, 5)).astype(np.float32)
        ref = ag.forward_record(unit, x, mode="eval")[0]
        mux_ref = ag.forward_record(unit.mux, x, mode="eval")[0]
        buf = x.copy()
        assert unit.forward(buf, mode="eval", overwrite=True).tobytes() == ref.tobytes()
        # the concat now holds the multiplexer's output
        assert buf.tobytes() == mux_ref.tobytes()
        buf = x.copy()
        assert unit.mux.forward(buf, mode="eval", out=buf) is buf
        assert buf.tobytes() == mux_ref.tobytes()

    def test_identity_shortcut_and_recorded_forwards_do_not_overwrite(self, rng):
        identity = with_random_stats(
            blocks.MFUnit("id", blocks.MFUnitConfig(16, 16, 16, g=4), rng), rng)
        projection = with_random_stats(
            blocks.MFUnit("dec", blocks.MFUnitConfig(16, 8, 8, g=4), rng), rng)
        x = rng.standard_normal((2, 16, 7, 6, 5)).astype(np.float32)
        keep = x.copy()
        ref = ag.forward_record(identity, x, mode="eval")[0]
        assert identity.forward(x, mode="eval", overwrite=True).tobytes() == ref.tobytes()
        tape = ag.GradTape()
        projection.forward(tape.leaf(x), mode="eval", tape=tape, overwrite=True)
        projection.forward(x, mode="train", overwrite=True)
        assert x.tobytes() == keep.tobytes()


def test_decoder_unit_lets_its_concat_go_before_the_second_conv(rng):
    """dec3 (96 -> 16, g16) on a 1x96x48^3 concat, untaped in eval mode: the
    traced peak is the concat, the shortcut's and the first conv's outputs
    and one pass's scratch (a slab and a BN+ReLU band). The concat goes once
    the first conv has read it; held through the second conv, it and that
    conv's output would exceed this."""
    cfg = blocks.MFUnitConfig(96, 16, 16, g=16)
    unit = blocks.MFUnit("dec3", cfg, rng)
    size = 48
    tracemalloc.start()
    try:
        # the concat is made under the trace, and only the unit holds it
        unit.forward(rng.standard_normal((1, cfg.c_in, size, size, size), dtype=np.float32),
                     mode="eval", overwrite=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    channel = size ** 3 * 4
    assert peak <= (cfg.c_in + 2 * cfg.c_out) * channel + 2 * ops.SLAB_BYTES + (1 << 20)
