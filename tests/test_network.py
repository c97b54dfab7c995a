"""Network assembly, forward contracts and label prediction."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from dmfnet import analysis, autograd as ag, network, ops
from dmfnet.blocks import DMFUnit, MFUnit
from dmfnet.errors import ConfigError, ShapeError

from helpers import copy_dmfnet_to_mfnet, with_random_stats


TOY = dict(groups=2, stage_channels=(4, 8, 8, 8, 8, 8, 4))


class TestArchConfig:
    def test_default_plan_has_six_leading_dmf_units(self):
        net = network.build_network(network.toy_config(**TOY), seed=0)
        encoder = [unit for stage in net.stages for unit in stage]
        assert [type(u) for u in encoder] == [DMFUnit] * 6 + [MFUnit] * 3
        assert [u.cfg.stride for u in encoder] == [2, 1, 1] * 3
        assert [(type(u), u.cfg.stride) for u in net.decoder] == [(MFUnit, 1)] * 3

    def test_mfnet_plan_is_all_mf(self):
        net = network.build_network(network.toy_config(dilated_unit_count=0, **TOY), seed=0)
        units = [unit for stage in net.stages for unit in stage] + net.decoder
        assert [type(u) for u in units] == [MFUnit] * 12

    def test_width_scaling_rounds_to_group_multiples(self):
        cfg = network.mfnet_075_config()
        widths = cfg.scaled_channels()
        assert all(w % 16 == 0 for w in widths)
        assert widths == (32, 96, 208, 320, 112, 48, 16)

    def test_indivisible_width_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            network.ArchConfig(stage_channels=(30, 128, 272, 432, 144, 64, 16))

    def test_bad_stage_count_rejected(self):
        with pytest.raises(ConfigError):
            network.ArchConfig(stage_channels=(32, 64, 128))


class TestBuildAndForward:
    def test_logit_shape_contract(self, rng):
        net = network.build_network(network.toy_config(**TOY), seed=0)
        x = rng.standard_normal((1, 4, 32, 32, 32)).astype(np.float32)
        logits = net.forward(x, mode="eval")
        assert logits.shape == (1, 4, 32, 32, 32)
        assert np.isfinite(logits).all()

    def test_default_config_shape_contract(self, rng):
        net = network.build_network(network.dmfnet_config(), seed=0)
        x = rng.standard_normal((1, 4, 32, 32, 32)).astype(np.float32)
        logits = net.forward(x, mode="eval")
        assert logits.shape == (1, 4, 32, 32, 32)
        assert np.isfinite(logits).all()

    def test_forward_deterministic(self, rng):
        net = network.build_network(network.toy_config(**TOY), seed=1)
        x = rng.standard_normal((1, 4, 16, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(net.forward(x, mode="eval"),
                                      net.forward(x.copy(), mode="eval"))

    def test_zero_input_zero_classifier_gives_flat_logits(self):
        net = network.build_network(network.toy_config(**TOY), seed=0)
        net.classifier.weight.data[:] = 0.0
        x = np.zeros((1, 4, 16, 16, 16), dtype=np.float32)
        logits = net.forward(x, mode="eval")
        np.testing.assert_array_equal(logits, 0.0)

    def test_classify_then_upsample_equals_upsample_then_classify(self, rng):
        """The head classifies dec3's output and then upsamples the logits. The
        classifier is a bias-free 1x1x1 conv and the upsample acts on each
        channel alone, so this equals classifying the upsampled features up
        to float64 rounding, with the same labels."""
        net = network.build_network(network.toy_config(), seed=0, dtype=np.float64)
        x = rng.standard_normal((1, 4, 32, 32, 32))
        logits = net.forward(x, mode="eval")
        _, tape = ag.forward_record(net, x, mode="eval")
        dec3 = tape.output_var.parents[0].parents[0].data
        by_hand = ops.conv3d(ops.trilinear_upsample(dec3, net.cfg.stem_stride),
                             net.classifier.weight.data, net.classifier.spec)
        assert np.abs(logits - by_hand).max() / np.abs(by_hand).max() < 1e-14
        np.testing.assert_array_equal(network.predict_labels(logits),
                                      network.predict_labels(by_hand))

    def test_width_multiplier_monotone(self):
        counts = []
        for m in (0.5, 0.75, 1.0, 1.25):
            cfg = network.dmfnet_config(width_multiplier=m)
            counts.append(analysis.count_flops(network.build_network(cfg, seed=0)).total_params)
        assert counts == sorted(counts)
        assert counts[1] < counts[2]

    def test_indivisible_spatial_dims_rejected(self, rng):
        net = network.build_network(network.toy_config(**TOY), seed=0)
        with pytest.raises(ShapeError, match="divisible by 16"):
            net.forward(rng.standard_normal((1, 4, 24, 24, 24)).astype(np.float32))

    def test_wrong_channel_count_rejected(self, rng):
        net = network.build_network(network.toy_config(**TOY), seed=0)
        with pytest.raises(ShapeError, match="channels"):
            net.forward(rng.standard_normal((1, 3, 16, 16, 16)).astype(np.float32))

    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_skip_shapes_agree_across_sizes(self, size):
        """count_flops checks the shape and runs the full default net's forward
        at its 16^3 probe; a skip mismatch would raise inside."""
        net = network.build_network(network.dmfnet_config(), seed=0)
        rep = analysis.count_flops(net, (1, 4, size, size, size))
        assert rep.total_flops > 0

    def test_mixed_precision_forwards_agree(self, rng):
        cfg = network.toy_config(**TOY)
        net32 = network.build_network(cfg, seed=3, dtype=np.float32)
        net64 = network.build_network(cfg, seed=3, dtype=np.float64)
        x = rng.standard_normal((1, 4, 16, 16, 16))
        y32 = net32.forward(x.astype(np.float32), mode="eval")
        y64 = net64.forward(x, mode="eval")
        denom = np.maximum(np.abs(y64), 1.0)
        assert (np.abs(y32 - y64) / denom).max() < 1e-3

    def test_omega_registry_covers_dilated_units(self):
        net = network.build_network(network.toy_config(**TOY), seed=0)
        omegas = net.omega_parameters()
        assert len(omegas) == 6
        assert [name for name, _ in omegas] == [
            "enc1.u0", "enc1.u1", "enc1.u2", "enc2.u0", "enc2.u1", "enc2.u2"]
        for _, p in omegas:
            np.testing.assert_array_equal(p.data, 1.0)

    def test_unique_parameter_names(self):
        net = network.build_network(network.toy_config(**TOY), seed=0)
        names = [p.name for p in net.parameters()] + [n for n, _ in net.buffers()]
        assert len(names) == len(set(names))


class TestCheckpointLayout:
    """save_params and load_params share state_items()' order, so a reorder
    would round-trip silently and only break checkpoints written before it."""

    MUX = ["mux.bn_squeeze.gamma", "mux.bn_squeeze.beta", "mux.weight",
           "mux.bn_inflate.gamma", "mux.bn_inflate.beta"]
    MUX_STATS = ["mux.bn_squeeze.running_mean", "mux.bn_squeeze.running_var",
                 "mux.bn_inflate.running_mean", "mux.bn_inflate.running_var"]

    def _unit_names(self, prefix):
        net = network.build_network(network.toy_config(**TOY), seed=0)
        return [n[len(prefix):] for n, _ in net.state_items() if n.startswith(prefix)]

    def test_dmf_unit_order(self):
        assert self._unit_names("enc1.u0.") == self.MUX + [
            "bn1.gamma", "bn1.beta", "branch_d1.weight", "branch_d2.weight",
            "branch_d3.weight", "omega", "conv2.bn.gamma", "conv2.bn.beta",
            "conv2.conv.weight", "shortcut.weight"] + self.MUX_STATS + [
            "bn1.running_mean", "bn1.running_var",
            "conv2.bn.running_mean", "conv2.bn.running_var"]

    def test_mf_unit_order(self):
        assert self._unit_names("enc3.u0.") == self.MUX + [
            "conv1.bn.gamma", "conv1.bn.beta", "conv1.conv.weight",
            "conv2.bn.gamma", "conv2.bn.beta", "conv2.conv.weight",
            "shortcut.weight"] + self.MUX_STATS + [
            "conv1.bn.running_mean", "conv1.bn.running_var",
            "conv2.bn.running_mean", "conv2.bn.running_var"]

    def test_toy_preset_names_and_shapes(self):
        items = network.build_network(network.toy_config(), seed=0).state_items()
        blob = json.dumps([(n, list(a.shape)) for n, a in items]).encode()
        assert len(items) == 254
        assert hashlib.sha256(blob).hexdigest() == \
            "aa289ce535dfd056edeadef4cec8fd95bd7c8e277a710c0bd7f6f9d7bd35f0fa"


class TestLeanTape:
    """A train forward keeps no BN or BN+ReLU output: each BN+ReLU runs inside
    the one conv that reads it, a DMF unit's three branches included."""

    def test_toy_train_tape(self, rng):
        net = network.build_network(network.toy_config(), seed=0)
        x = rng.standard_normal((1, 4, 16, 16, 16)).astype(np.float32)
        _, tape = ag.forward_record(net, x, mode="train")
        kinds = [v.op for v in tape.nodes]
        n_bn = sum(name.endswith(".running_mean") for name, _ in net.buffers())
        assert "relu" not in kinds
        # every BN+ReLU, a DMF unit's bn1 included, runs inside the one conv
        # that reads it: the unit's three branches are one conv node
        assert "batch_norm" not in kinds and "branch_weighted_sum" not in kinds
        assert sum(v.rebuild is not None for v in tape.nodes) == n_bn == 48
        # activation bytes of the float32 toy net at 1x4x16^3, of which the
        # head's 4-channel logits at half resolution are 8,192; the six bn1
        # outputs (30,208) and the 18 branch outputs (36,864) are not kept
        assert sum(v.data.nbytes for v in tape.nodes if v.op != "param") == 445_920

    def test_dmfnet_train_tape_keeps_no_add_or_decoder_upsample(self, rng):
        """Residual adds run inside their convs and the decoder's upsamples
        write into their concats; the one upsample node is the head's, and it
        reads the classifier's 4-channel logits, not dec3's 16 channels."""
        net = network.build_network(network.dmfnet_config(), seed=0)
        x = rng.standard_normal((1, 4, 16, 16, 16)).astype(np.float32)
        _, tape = ag.forward_record(net, x, mode="train")
        kinds = [v.op for v in tape.nodes]
        assert "add" not in kinds and "concat_channels" not in kinds
        assert kinds.count("trilinear_upsample") == 1
        head = tape.output_var
        logits = head.parents[0]
        assert head.op == "trilinear_upsample"
        assert logits.op == "conv3d" and logits.parents[1].param is net.classifier.weight
        assert logits.data.shape[1] == head.data.shape[1] == 4
        assert head.data.shape[2:] == x.shape[2:] == tuple(2 * s for s in logits.data.shape[2:])
        assert kinds.count("upsample_concat") == len(net.decoder) == 3
        # one residual per multiplexer and per unit: 12 units, two each; both
        # convs also run their BN+ReLU, so their parents are
        # (x, weight, residual, gamma, beta)
        convs = [v for v in tape.nodes if v.op == "conv3d"]
        residual = [v for v in convs if len(v.parents) == 5]
        assert len(residual) == 24
        assert all(v.parents[2].op != "param" and v.parents[3].param.name.endswith(".gamma")
                   for v in residual)

    def test_dmfnet_tape_runs_each_dmf_unit_as_one_conv(self, rng):
        """No BN+ReLU node and no branch sum: each DMF unit's bn1 and three
        branches are one conv node, whose parents are the input, the three
        branch weights, omega, and bn1's gamma and beta."""
        net = network.build_network(network.dmfnet_config(), seed=0)
        x = rng.standard_normal((1, 4, 16, 16, 16)).astype(np.float32)
        _, tape = ag.forward_record(net, x, mode="train")
        kinds = {v.op for v in tape.nodes}
        assert "batch_norm" not in kinds and "branch_weighted_sum" not in kinds
        dmf = [u for stage in net.stages for u in stage if isinstance(u, DMFUnit)]
        merged = [v for v in tape.nodes if v.op == "conv3d" and len(v.parents) == 7]
        assert len(merged) == len(dmf) == 6
        for u, v in zip(dmf, merged):
            assert [p.param for p in v.parents[1:]] == [
                *(b.weight for b in u.branches), u.omega, u.bn1.gamma, u.bn1.beta]
            assert v.rebuild is not None


def _sha(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


class TestEvalForwardMemory:
    """An untaped eval forward runs each multiplexer a band of depth planes at
    a time and lets each decoder unit write over its own concat."""

    def test_only_decoder_concats_are_written_over(self, monkeypatch):
        rng = np.random.default_rng(3)
        net = with_random_stats(network.build_network(network.toy_config(**TOY), seed=0), rng)
        x = rng.standard_normal((1, 4, 32, 32, 32)).astype(np.float32)
        ref = ag.forward_record(net, x, mode="eval")[0]
        # the caller's input, the stem output and every encoder unit's output,
        # the enc1 and enc2 skips among them, each hashed as it is made
        held = [("input", x, _sha(x))]

        def hashed(name, forward):
            def run(*args, **kwargs):
                out = forward(*args, **kwargs)
                held.append((name, out, _sha(out)))
                return out
            return run

        for layer in [net.stem] + [u for stage in net.stages for u in stage]:
            monkeypatch.setattr(layer, "forward", hashed(layer.name, layer.forward))
        out = net.forward(x, mode="eval")
        assert len(held) == 11
        assert [name for name, a, before in held if _sha(a) != before] == []
        assert out.tobytes() == ref.tobytes()

    def test_dmfnet_eval_forward_peak(self):
        """The traced peak at 1x4x64^3 is in dec3's first conv: the concat, one
        conv pass's scratch (a slab and a BN+ReLU band, SLAB_BYTES each) and a
        few arrays of dec3's output width. No squeeze or inflate output of the
        multiplexer is whole beside the concat."""
        net = network.build_network(network.dmfnet_config(), seed=0)
        x = np.random.default_rng(0).standard_normal((1, 4, 64, 64, 64), dtype=np.float32)
        dec3 = net.decoder[-1].cfg
        channel_bytes = (64 // net.cfg.stem_stride) ** 3 * x.itemsize
        tracemalloc.start()
        try:
            net.forward(x, mode="eval")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (dec3.c_in + 4 * dec3.c_out) * channel_bytes + 2 * ops.SLAB_BYTES


class TestDegeneracyAtNetworkScale:
    def test_omega_100_equals_weight_copied_mfnet(self, rng):
        toy = dict(groups=2, stage_channels=(4, 8, 8, 8, 8, 8, 4))
        dmf_net = network.build_network(network.toy_config(**toy), seed=11)
        mf_net = network.build_network(
            network.toy_config(dilated_unit_count=0, **toy), seed=99)
        copy_dmfnet_to_mfnet(dmf_net, mf_net)
        for _, omega in dmf_net.omega_parameters():
            omega.data[...] = (1.0, 0.0, 0.0)
        x = rng.standard_normal((1, 4, 16, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(dmf_net.forward(x, mode="eval"),
                                      mf_net.forward(x, mode="eval"))


class TestPredictLabels:
    def test_one_hot_logits_recover_class(self):
        logits = np.zeros((1, 4, 2, 2, 2), dtype=np.float32)
        logits[0, 2] = 5.0
        np.testing.assert_array_equal(network.predict_labels(logits), 2)

    def test_uniform_logits_tie_to_background(self):
        logits = np.ones((1, 4, 2, 2, 2), dtype=np.float32)
        np.testing.assert_array_equal(network.predict_labels(logits), 0)

    def test_class_three_maps_to_label_four(self):
        logits = np.zeros((1, 4, 1, 1, 1), dtype=np.float32)
        logits[0, 3] = 1.0
        assert network.predict_labels(logits)[0, 0, 0, 0] == 4

    def test_channel_count_checked(self):
        with pytest.raises(ShapeError):
            network.predict_labels(np.zeros((1, 3, 2, 2, 2), dtype=np.float32))


class TestSegment:
    def test_divisible_volume_is_not_copied(self, monkeypatch, rng):
        net = network.build_network(network.toy_config(**TOY), seed=0)
        x = rng.standard_normal((1, 4, 16, 16, 32)).astype(np.float32)
        expect = network.segment(net, x)

        def no_pad(*args, **kwargs):
            raise AssertionError("np.pad called on a volume that needs no padding")

        monkeypatch.setattr(network.np, "pad", no_pad)
        np.testing.assert_array_equal(network.segment(net, x), expect)
