"""Parameter and FLOPs accounting."""

import json
from math import prod

import numpy as np
import pytest

from dmfnet import analysis, autograd as ag, blocks, network, ops


def conv_layer(spec, rng):
    return blocks.Conv3dLayer("c", spec, rng)


class TestCountParams:
    def test_single_grouped_conv_formula(self, rng):
        spec = ops.ConvSpec(32, 32, kernel=3, groups=16)
        rep = analysis.count_flops(conv_layer(spec, rng))
        assert rep.total_params == 27 * 32 * 32 // 16 == 1728

    def test_params_independent_of_input_shape(self, rng):
        net = network.build_network(network.toy_config(
            groups=2, stage_channels=(4, 8, 8, 8, 8, 8, 4)), seed=0)
        p_only = analysis.count_flops(net).total_params
        with_flops = analysis.count_flops(net, (1, 4, 16, 16, 16)).total_params
        with_flops2 = analysis.count_flops(net, (1, 4, 32, 32, 32)).total_params
        assert p_only == with_flops == with_flops2

    def test_total_is_sum_of_rows(self):
        net = network.build_network(network.dmfnet_config(), seed=0)
        rep = analysis.count_flops(net)
        assert rep.total_params == sum(r.params for r in rep.rows)

    def test_count_matches_parameter_store(self):
        """Accounting equals the actual number of learnable scalars, frozen omegas included."""
        cfgs = [f() for f in network.ARCH_PRESETS.values()]
        for cfg in cfgs + [network.dmfnet_config(weight_mode="fixed_equal")]:
            net = network.build_network(cfg, seed=0)
            stored = sum(p.data.size for p in net.parameters())
            assert analysis.count_flops(net).total_params == stored
            # the FLOP probe's tape holds no leaf for a frozen omega
            assert analysis.count_flops(net, (1, 4, 16, 16, 16)).total_params == stored


class TestCountFlops:
    def test_single_conv_multiply_adds(self, rng):
        # 1x1x1 conv, one in/out channel, on a 2^3 output: 8 multiply-adds
        spec = ops.ConvSpec(1, 1, kernel=1)
        rep = analysis.count_flops(conv_layer(spec, rng), (1, 1, 2, 2, 2))
        assert rep.total_flops == 8

    def test_flops_linear_in_voxels(self):
        net = network.build_network(network.toy_config(
            groups=2, stage_channels=(4, 8, 8, 8, 8, 8, 4)), seed=0)
        f1 = analysis.count_flops(net, (1, 4, 16, 16, 16)).total_flops
        f2 = analysis.count_flops(net, (1, 4, 32, 32, 32)).total_flops
        assert f2 == 8 * f1

    def test_flops_scale_inverse_with_groups(self, rng):
        shape = (1, 8, 4, 4, 4)
        f = {}
        for g in (1, 2, 4):
            spec = ops.ConvSpec(8, 8, kernel=3, padding=1, groups=g)
            f[g] = analysis.count_flops(conv_layer(spec, rng), shape).total_flops
        assert f[1] == 2 * f[2] == 4 * f[4]

    def test_batch_scales_flops(self, rng):
        spec = ops.ConvSpec(2, 2, kernel=3, padding=1)
        f1 = analysis.count_flops(conv_layer(spec, rng), (1, 2, 4, 4, 4)).total_flops
        f3 = analysis.count_flops(conv_layer(spec, rng), (3, 2, 4, 4, 4)).total_flops
        assert f3 == 3 * f1

    def test_non_conv_layers_excluded(self, rng):
        bn = blocks.BatchNorm3d("bn", 4)
        rep = analysis.count_flops(bn, (1, 4, 8, 8, 8))
        assert rep.total_flops == 0
        assert rep.total_params == 8


class TestAccountingMatchesExecutedGraph:
    """count_flops scales an eval forward at the smallest legal input; pin it
    to a train forward run at the full shape."""

    @pytest.mark.parametrize("dilated,nodes,macs", [(6, 56, 43_549_248), (0, 56, 35_752_512)],
                             ids=["dmfnet-toy", "mfnet-toy"])
    def test_conv_nodes_and_macs(self, dilated, nodes, macs):
        shape = (2, 4, 16, 32, 48)
        net = network.build_network(network.toy_config(dilated_unit_count=dilated), seed=0)
        _, tape = ag.forward_record(net, np.zeros(shape, np.float32), mode="train")
        convs = [v for v in tape.nodes if v.op == "conv3d"]
        # weight size times output voxels, per weight leaf: parents[1], and
        # for a DMF unit's one conv over its branches, each branch's weight
        weights = [(v, w) for v in convs for w in v.parents[1:] if w.op == "param" and w.data.ndim == 5]
        traced = sum(w.data.size * v.data.shape[0] * prod(v.data.shape[2:]) for v, w in weights)
        rep = analysis.count_flops(net, shape)
        assert traced == rep.total_flops == macs
        assert len(convs) == nodes
        # one row per conv weight: the tied multiplexer pair is two nodes, one row
        assert {w.param.name for _, w in weights} == \
            {r.name for r in rep.rows if r.kind == "conv" and r.flops}


class TestPublishedTotals:
    """Full bands are exercised by the acceptance suite; spot-check here."""

    def test_dmfnet_band(self):
        net = network.build_network(network.dmfnet_config(), seed=0)
        rep = analysis.count_flops(net, (1, 4, 128, 128, 128))
        assert abs(rep.params_millions - 3.88) / 3.88 < 0.02
        assert abs(rep.flops_g - 27.04) / 27.04 < 0.10

    def test_dmfnet_flops_pinned(self):
        """The conv multiply-adds of the paper's 1x4x128^3 crop, exactly. The
        16 -> 4 classifier runs at half resolution, before the head's upsample."""
        net = network.build_network(network.dmfnet_config(), seed=0)
        assert analysis.count_flops(net, (1, 4, 128, 128, 128)).total_flops == 26_831_904_768

    def test_dmf_unit_count_in_default_net(self):
        net = network.build_network(network.dmfnet_config(), seed=0)
        rep = analysis.count_flops(net)
        omega_rows = [r for r in rep.rows if r.kind == "omega"]
        assert len(omega_rows) == 6
        assert all(r.params == 3 for r in omega_rows)


class TestReportRendering:
    def test_text_contains_totals(self):
        net = network.build_network(network.dmfnet_config(), seed=0)
        rep = analysis.count_flops(net, (1, 4, 128, 128, 128))
        text = rep.to_text(per_layer=False)
        assert "3.86M" in text or "3.85M" in text
        assert "G" in text

    def test_json_roundtrip(self):
        net = network.build_network(network.toy_config(
            groups=2, stage_channels=(4, 8, 8, 8, 8, 8, 4)), seed=0)
        rep = analysis.count_flops(net, (1, 4, 16, 16, 16))
        blob = json.loads(rep.to_json())
        assert blob["total_params"] == rep.total_params
        assert blob["total_flops"] == rep.total_flops
        assert len(blob["rows"]) == len(rep.rows)

    def test_comparison_table(self):
        reports = []
        names = ["dmfnet", "mfnet"]
        for n in names:
            net = network.build_network(network.ARCH_PRESETS[n](), seed=0)
            reports.append(analysis.count_flops(net, (1, 4, 128, 128, 128)))
        table = analysis.report_table(reports, names)
        lines = table.splitlines()
        assert len(lines) == 3
        assert "Params(M)" in lines[0] and "FLOPs(G)" in lines[0]
        assert "dmfnet" in lines[1]
